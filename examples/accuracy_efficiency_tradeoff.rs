//! The accuracy/efficiency trade-off space (paper Sec. III-C and Fig. 10/11): build
//! the four algorithm variants — BwCu, BwAb, FwAb and Hybrid — for one victim
//! network, bind each into a `DetectionEngine`, read detection AUC off it, and
//! price the engine's program on the hardware model at the path density the
//! engine measured.
//!
//! ```text
//! cargo run --release --example accuracy_efficiency_tradeoff
//! ```

use std::sync::Arc;

use ptolemy::accel::{HardwareConfig, Simulator};
use ptolemy::attacks::{Attack, Bim, Fgsm};
use ptolemy::compiler::Compiler;
use ptolemy::core::{variants, DetectionEngine, Profiler};
use ptolemy::data::SyntheticDataset;
use ptolemy::forest::auc;
use ptolemy::nn::{zoo, TrainConfig, Trainer};
use ptolemy::tensor::{Rng64, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Victim: the AlexNet-class model on a 10-class ImageNet-style dataset.
    let dataset = SyntheticDataset::synth_imagenet_subset(10, 25, 8, 42)?;
    let mut network = zoo::conv_net(dataset.num_classes(), &mut Rng64::new(42))?;
    let report = Trainer::new(TrainConfig {
        epochs: 40,
        batch_size: 8,
        learning_rate: 0.002,
        ..TrainConfig::default()
    })
    .fit(&mut network, dataset.train())?;
    println!("victim clean accuracy: {:.2}\n", report.final_accuracy);
    // Engines share the trained network instead of copying it.
    let network = Arc::new(network);

    // Adversarial evaluation set: FGSM + BIM on correctly classified test inputs.
    let attacks: Vec<Box<dyn Attack>> = vec![
        Box::new(Fgsm::new(0.12)),
        Box::new(Bim::new(0.12, 0.02, 25)),
    ];
    let benign: Vec<Tensor> = dataset.test().iter().map(|(x, _)| x.clone()).collect();
    let mut adversarial: Vec<Tensor> = Vec::new();
    for attack in &attacks {
        for (input, label) in dataset.test() {
            if network.predict(input)? != *label {
                continue;
            }
            adversarial.push(attack.perturb(&network, input, *label)?.input);
        }
    }

    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>16}",
        "variant", "AUC", "latency", "energy", "batch latency(ms)"
    );
    let programs = vec![
        ("BwCu", variants::bw_cu(&network, 0.5)?),
        ("BwAb", variants::bw_ab(&network, 0.1)?),
        ("FwAb", variants::fw_ab(&network, 0.1)?),
        ("Hybrid", variants::hybrid(&network, 0.1, 0.5)?),
    ];
    let config = HardwareConfig::default();
    let simulator = Simulator::new(config)?;
    for (name, program) in programs {
        // One engine per variant: profiled class paths and a calibrated classifier.
        let class_paths = Profiler::new(program.clone()).profile(&network, dataset.train())?;
        let engine = DetectionEngine::builder(network.clone(), program, class_paths)
            .calibrate(&benign, &adversarial)
            .build()?;

        // Accuracy: raw path similarity as the detection score.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for (inputs, label) in [(&benign, false), (&adversarial, true)] {
            for input in inputs.iter() {
                let (_, s) = engine.path_similarity(input)?;
                scores.push(1.0 - s);
                labels.push(label);
            }
        }
        let variant_auc = auc(&scores, &labels)?;

        // Cost: serve the benign set as one batch, then price the engine's
        // program on the default 20x20 accelerator at the batch's mean path
        // density; the accelerator runs one input at a time, so the batch
        // latency is the per-input latency times the batch size.
        let densities: Vec<f32> = engine
            .detect_batch_with_paths(&benign)
            .into_iter()
            .map(|served| served.map(|(_, path)| path.density()))
            .collect::<Result<_, _>>()?;
        let density = densities.iter().sum::<f32>() / densities.len() as f32;
        let compiled = Compiler::default().compile(engine.network(), engine.program())?;
        let report = simulator.simulate(engine.network(), &compiled, density)?;
        println!(
            "{:<8} {:>8.3} {:>11.2}x {:>11.2}x {:>16.3}",
            name,
            variant_auc,
            report.latency_factor(),
            report.energy_factor(),
            config.cycles_to_ms(report.total_cycles) * densities.len() as f64,
        );
    }
    println!("\n(The paper's Fig. 10/11 shape: BwCu is the most accurate and most expensive, FwAb hides almost all latency, Hybrid sits in between.)");
    Ok(())
}
