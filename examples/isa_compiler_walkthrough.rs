//! A walkthrough of the architecture side of Ptolemy (paper Sec. IV–V): express a
//! detection program, compile it to the custom 24-bit ISA and the static task
//! schedule, inspect the generated assembly and the effect of each compiler
//! optimisation, and execute the schedule on the cycle/energy model.
//!
//! ```text
//! cargo run --release --example isa_compiler_walkthrough
//! ```

use ptolemy::accel::{area_report, dram_space_report, HardwareConfig, Simulator};
use ptolemy::compiler::{Compiler, OptimizationFlags};
use ptolemy::core::{variants, DetectionProgram, Direction, ThresholdKind};
use ptolemy::isa::assemble;
use ptolemy::nn::zoo;
use ptolemy::tensor::Rng64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = zoo::conv_net(10, &mut Rng64::new(3))?;
    let num_weight_layers = network.weight_layer_indices().len();

    // 1. The programming interface (paper Fig. 6): per-layer extraction specs.  This
    //    program extracts only the last three layers, the last one with a cumulative
    //    threshold and the other two with absolute thresholds.
    let program = DetectionProgram::builder(Direction::Forward, num_weight_layers)
        .all_layers(ThresholdKind::Absolute { phi: 0.1 })
        .layer(
            num_weight_layers - 1,
            ThresholdKind::Cumulative { theta: 0.5 },
        )?
        .disable_before(num_weight_layers - 3)
        .build()?;
    println!(
        "detection program: direction {:?}, {} of {} layers extracted\n",
        program.direction(),
        program.enabled_layers().len(),
        num_weight_layers
    );

    // 2. Compile to the 24-bit CISC ISA (paper Table I) and show the assembly.
    let compiled = Compiler::default().compile(&network, &program)?;
    println!(
        "compiled program: {} static instructions, {} bytes (paper: largest program ~30 instructions, <100 bytes)",
        compiled.isa.instructions.len(),
        compiled.isa.size_bytes()
    );
    println!("--- generated assembly ---");
    print!("{}", compiled.isa.disassemble());
    println!("--------------------------\n");

    // 3. The assembler also accepts the paper's Listing-1 style textual syntax.
    let listing = "\
.set rfsize 0x200
mov r3, rfsize
findrf r4, r1
sort r1, r3, r6
acum r6, r1, r5";
    let assembled = assemble(listing)?;
    println!(
        "assembled Listing-1 fragment: {} instructions, round-trips to:\n{}",
        assembled.instructions.len(),
        assembled.disassemble()
    );

    // 4. Compiler optimisations: compare the schedule with and without layer-level
    //    pipelining (Fig. 7a) on the hardware model.
    let simulator = Simulator::new(HardwareConfig::default())?;
    let density = 0.05;
    let pipelined = simulator.simulate(&network, &compiled, density)?;
    let serial_compiled = Compiler::new(OptimizationFlags {
        layer_pipelining: false,
        ..OptimizationFlags::default()
    })
    .compile(&network, &program)?;
    let serial = simulator.simulate(&network, &serial_compiled, density)?;
    println!(
        "latency with layer-level pipelining: {:.3}x inference; without: {:.3}x",
        pipelined.latency_factor(),
        serial.latency_factor()
    );

    // 5. The compute-for-memory trade-off (csps recompute) on a cumulative program.
    let bwcu = variants::bw_cu(&network, 0.5)?;
    let recompute = Compiler::default().compile(&network, &bwcu)?;
    let store_all = Compiler::new(OptimizationFlags {
        recompute_partial_sums: false,
        ..OptimizationFlags::default()
    })
    .compile(&network, &bwcu)?;
    let config = HardwareConfig::default();
    println!(
        "BwCu extra DRAM space: {:.2} MB with recompute vs {:.2} MB storing every partial sum",
        dram_space_report(&network, &recompute, &config, density)?.total_mb(),
        dram_space_report(&network, &store_all, &config, density)?.total_mb(),
    );

    // 6. Hardware cost of the Ptolemy extensions (paper Sec. VII-A).
    let area = area_report(&config)?;
    println!(
        "area overhead: {:.1}% ({:.3} mm^2 added to a {:.2} mm^2 accelerator)",
        area.overhead_percent(),
        area.added_mm2(),
        area.baseline_mm2
    );

    Ok(())
}
