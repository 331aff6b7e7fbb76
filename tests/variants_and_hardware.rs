//! Integration tests spanning the core framework, compiler, ISA and hardware model:
//! the compiled programs execute on the simulator with the cost ordering the paper
//! reports, the ISA artifacts round-trip, and the hardware-side trade-offs
//! (recompute, pipelining, provisioning) move the numbers in the right direction.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers outside #[test] fns unwrap; a failure there fails the test"
)]

mod common;

use ptolemy::accel::{area_report, dram_space_report, HardwareConfig, Simulator};
use ptolemy::compiler::{Compiler, OptimizationFlags};
use ptolemy::core::variants;
use ptolemy::isa::Instruction;
use ptolemy::nn::zoo;
use ptolemy::tensor::Rng64;

fn conv_network() -> ptolemy::nn::Network {
    zoo::conv_net(10, &mut Rng64::new(0xCAFE)).unwrap()
}

#[test]
fn variant_cost_ordering_matches_fig11() {
    let network = conv_network();
    let sim = Simulator::new(HardwareConfig::default()).unwrap();
    let density = 0.08;

    let cost = |program| {
        let compiled = Compiler::default().compile(&network, &program).unwrap();
        sim.simulate(&network, &compiled, density).unwrap()
    };
    let bwcu = cost(variants::bw_cu(&network, 0.5).unwrap());
    let bwab = cost(variants::bw_ab(&network, 0.1).unwrap());
    let fwab = cost(variants::fw_ab(&network, 0.1).unwrap());
    let hybrid = cost(variants::hybrid(&network, 0.1, 0.5).unwrap());

    // Fig. 11 shape: BwCu >> Hybrid > BwAb >= FwAb ~ 1, same for energy.
    assert!(bwcu.latency_factor() > hybrid.latency_factor());
    assert!(hybrid.latency_factor() >= bwab.latency_factor());
    assert!(bwab.latency_factor() >= fwab.latency_factor());
    assert!(
        fwab.latency_overhead() < 0.30,
        "FwAb overhead {}",
        fwab.latency_overhead()
    );
    assert!(bwcu.energy_factor() > bwab.energy_factor());
    assert!(bwcu.energy_factor() > fwab.energy_factor());
    // Every variant is at least as expensive as plain inference.
    for report in [&bwcu, &bwab, &fwab, &hybrid] {
        assert!(report.latency_factor() >= 1.0);
        assert!(report.energy_factor() >= 1.0);
        assert!(report.total_cycles >= report.inference_cycles);
    }
}

#[test]
fn deeper_networks_pay_more_for_cumulative_extraction() {
    let sim = Simulator::new(HardwareConfig::default()).unwrap();
    let shallow = conv_network();
    let deep = zoo::resnet_mini(10, &mut Rng64::new(0xCAFE)).unwrap();
    let factor = |network: &ptolemy::nn::Network| {
        let program = variants::bw_cu(network, 0.5).unwrap();
        let compiled = Compiler::default().compile(network, &program).unwrap();
        sim.simulate(network, &compiled, 0.08)
            .unwrap()
            .latency_factor()
    };
    assert!(factor(&deep) > factor(&shallow));
}

#[test]
fn compiled_isa_round_trips_and_stays_small() {
    let network = conv_network();
    for program in [
        variants::bw_cu(&network, 0.5).unwrap(),
        variants::bw_ab(&network, 0.1).unwrap(),
        variants::fw_ab(&network, 0.1).unwrap(),
        variants::hybrid(&network, 0.1, 0.5).unwrap(),
    ] {
        let compiled = Compiler::default().compile(&network, &program).unwrap();
        // Binary encode/decode round trip for every instruction.
        for inst in &compiled.isa.instructions {
            let word = inst.encode();
            assert_eq!(&Instruction::decode(word).unwrap(), inst);
            assert!(word <= 0x00FF_FFFF, "instruction must fit in 24 bits");
        }
        // The paper notes its largest compiled program stays around 30 static
        // instructions / under 100 bytes; ours stays within the same order.
        assert!(
            compiled.isa.instructions.len() < 128,
            "{} instructions",
            compiled.isa.instructions.len()
        );
        // Tasks reference valid dependences.
        for (index, task) in compiled.tasks.iter().enumerate() {
            for &dep in &task.depends_on {
                assert!(dep < index, "task {index} depends on later task {dep}");
            }
        }
    }
}

#[test]
fn layer_pipelining_never_hurts_and_recompute_saves_dram() {
    let network = conv_network();
    let sim = Simulator::new(HardwareConfig::default()).unwrap();
    let config = HardwareConfig::default();

    // Layer-level pipelining (forward extraction) never increases latency.
    let fwab = variants::fw_ab(&network, 0.1).unwrap();
    let pipelined = Compiler::default().compile(&network, &fwab).unwrap();
    let serial = Compiler::new(OptimizationFlags {
        layer_pipelining: false,
        ..OptimizationFlags::default()
    })
    .compile(&network, &fwab)
    .unwrap();
    assert!(
        sim.simulate(&network, &pipelined, 0.08)
            .unwrap()
            .total_cycles
            <= sim.simulate(&network, &serial, 0.08).unwrap().total_cycles
    );

    // The csps recompute optimisation eliminates the stored-partial-sum footprint.
    let bwcu = variants::bw_cu(&network, 0.5).unwrap();
    let recompute = Compiler::default().compile(&network, &bwcu).unwrap();
    let store = Compiler::new(OptimizationFlags {
        recompute_partial_sums: false,
        ..OptimizationFlags::default()
    })
    .compile(&network, &bwcu)
    .unwrap();
    let space_recompute = dram_space_report(&network, &recompute, &config, 0.08).unwrap();
    let space_store = dram_space_report(&network, &store, &config, 0.08).unwrap();
    assert_eq!(space_recompute.partial_sum_bytes, 0);
    assert!(space_store.partial_sum_bytes > 0);
    assert!(space_recompute.total_bytes() < space_store.total_bytes());
}

#[test]
fn area_overhead_is_single_digit_and_grows_with_provisioning() {
    let base = area_report(&HardwareConfig::default()).unwrap();
    assert!(base.overhead_percent() > 1.0 && base.overhead_percent() < 10.0);
    // More sort units and a bigger array change the overhead in the right direction.
    let more_sort = area_report(&HardwareConfig::default().with_path_constructor(16, 16)).unwrap();
    assert!(more_sort.added_mm2() > base.added_mm2());
    let bigger_array = area_report(&HardwareConfig::default().with_array(32, 32)).unwrap();
    assert!(bigger_array.baseline_mm2 > base.baseline_mm2);
}

#[test]
fn selective_extraction_reduces_cost_monotonically() {
    let network = conv_network();
    let sim = Simulator::new(HardwareConfig::default()).unwrap();
    let layers = network.weight_layer_indices().len();
    let mut previous = 0.0f64;
    for extracted in 1..=layers {
        let program = variants::bw_cu_early_termination(&network, 0.5, extracted).unwrap();
        let compiled = Compiler::default().compile(&network, &program).unwrap();
        let report = sim.simulate(&network, &compiled, 0.08).unwrap();
        assert!(
            report.latency_factor() >= previous - 1e-9,
            "latency must not drop when extracting more layers"
        );
        previous = report.latency_factor();
    }
}
