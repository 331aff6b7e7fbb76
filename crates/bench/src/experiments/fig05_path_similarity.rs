//! Fig. 5a/5b — inter-class path similarity (θ = 0.5).
//!
//! The paper profiles class paths for AlexNet on 10 randomly sampled ImageNet
//! classes and for ResNet-18 on the 10 CIFAR-10 classes and reports that the
//! off-diagonal (inter-class) similarity is low — 36.2 % average on ImageNet,
//! 61.2 % on CIFAR-10 — which is what makes class paths usable as canaries.  The
//! CIFAR similarity is higher because its 10 classes are visually closer.
//!
//! This harness reproduces both matrices on the scaled-down workbenches and prints
//! the average / max / 90th-percentile statistics next to the paper's values.  The
//! shape to check: (1) inter-class similarity is well below 1, and (2) the few-class
//! CIFAR-style dataset shows *higher* similarity than the many-class ImageNet-style
//! dataset.

use ptolemy_core::{class_similarity_matrix, similarity_stats, variants};

use crate::{fmt3, BenchResult, BenchScale, Table, Workbench};

/// Paper values quoted in Sec. III-A.
pub const PAPER_IMAGENET_AVG: f32 = 0.362;
/// Paper value: maximum inter-class similarity for AlexNet @ ImageNet.
pub const PAPER_IMAGENET_MAX: f32 = 0.382;
/// Paper value: average inter-class similarity for ResNet18 @ CIFAR-10.
pub const PAPER_CIFAR_AVG: f32 = 0.612;
/// Paper value: maximum inter-class similarity for ResNet18 @ CIFAR-10.
pub const PAPER_CIFAR_MAX: f32 = 0.651;

fn stats_row(table: &mut Table, name: &str, matrix: &[Vec<f32>]) {
    let stats = similarity_stats(matrix);
    table.row([
        name.to_string(),
        fmt3(stats.average),
        fmt3(stats.max),
        fmt3(stats.p90),
    ]);
}

/// Runs the experiment.
///
/// Besides the two headline workbenches the paper also profiles ResNet-50 on
/// ImageNet as an architecture control (its similarity matches AlexNet's,
/// confirming that the CIFAR/ImageNet gap comes from the datasets, not the
/// networks); this harness adds the same control with the ResNet-class model on a
/// diverse 10-class dataset.
///
/// # Errors
///
/// Propagates workbench construction and profiling errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let theta = 0.5;

    let imagenet = Workbench::alexnet_imagenet(scale)?;
    let cifar = Workbench::resnet_cifar10(scale)?;
    // Architecture control: the same ResNet-class model on a *diverse* (ImageNet-style,
    // non-squeezed) 10-class dataset, mirroring the paper's ResNet50 @ ImageNet row.
    let control_data = ptolemy_data::SyntheticDataset::generate(ptolemy_data::DatasetConfig {
        name: "synth-imagenet-small".into(),
        num_classes: 10,
        shape: vec![3, 8, 8],
        train_per_class: scale.train_per_class(),
        test_per_class: scale.test_per_class(),
        noise: 0.12,
        seed: 0xF1A5,
    })?;
    let mut control_net = ptolemy_nn::zoo::resnet_mini(
        control_data.num_classes(),
        &mut ptolemy_tensor::Rng64::new(0xF1A5),
    )?;
    ptolemy_nn::Trainer::new(ptolemy_nn::TrainConfig {
        epochs: scale.epochs(),
        batch_size: 8,
        learning_rate: 0.002,
        ..ptolemy_nn::TrainConfig::default()
    })
    .fit(&mut control_net, control_data.train())?;

    let mut table = Table::new("Fig. 5 — inter-class path similarity (theta = 0.5)").header([
        "model @ dataset",
        "avg",
        "max",
        "p90",
    ]);

    let program = variants::bw_cu(&imagenet.network, theta)?;
    let set = imagenet.profile(&program)?;
    let imagenet_matrix = class_similarity_matrix(&set)?;
    stats_row(&mut table, &imagenet.name, &imagenet_matrix);

    let program = variants::bw_cu(&cifar.network, theta)?;
    let set = cifar.profile(&program)?;
    let cifar_matrix = class_similarity_matrix(&set)?;
    stats_row(&mut table, &cifar.name, &cifar_matrix);

    let program = variants::bw_cu(&control_net, theta)?;
    let control_set =
        ptolemy_core::Profiler::new(program).profile(&control_net, control_data.train())?;
    let control_matrix = class_similarity_matrix(&control_set)?;
    stats_row(
        &mut table,
        "ResNet18-class @ diverse 10-class control (paper: ResNet50 @ ImageNet)",
        &control_matrix,
    );

    let imagenet_stats = similarity_stats(&imagenet_matrix);
    let cifar_stats = similarity_stats(&cifar_matrix);
    let control_stats = similarity_stats(&control_matrix);
    table.note(format!(
        "paper: ImageNet avg {PAPER_IMAGENET_AVG:.3} (max {PAPER_IMAGENET_MAX:.3}), CIFAR-10 avg {PAPER_CIFAR_AVG:.3} (max {PAPER_CIFAR_MAX:.3}), ResNet50 @ ImageNet avg 0.376"
    ));
    table.check(
        "class paths are distinctive (every average well below 1)",
        imagenet_stats.average < 0.9 && cifar_stats.average < 0.9 && control_stats.average < 0.9,
    );
    table.note(format!(
        "similar-class vs diverse-data average overlap: {} vs {}",
        fmt3(cifar_stats.average),
        fmt3(control_stats.average),
    ));
    table.check(
        "same architecture, similar-class data shows higher overlap than \
         diverse data",
        cifar_stats.average > control_stats.average,
    );
    table.note(format!(
        "cross-architecture comparison (paper's Fig. 5 axes): CIFAR-style {} vs ImageNet-style {}",
        fmt3(cifar_stats.average),
        fmt3(imagenet_stats.average),
    ));
    table.note(format!(
        "clean accuracy: {} {:.2}, {} {:.2}",
        imagenet.name, imagenet.clean_accuracy, cifar.name, cifar.clean_accuracy
    ));

    // Also print the full CIFAR matrix (10×10 like the paper's heat map).
    let mut matrix_table =
        Table::new("Fig. 5b — ResNet18-class @ synth-CIFAR-10 similarity matrix").header(
            std::iter::once("class".to_string())
                .chain((0..cifar_matrix.len()).map(|c| c.to_string())),
        );
    for (i, row) in cifar_matrix.iter().enumerate() {
        matrix_table
            .row(std::iter::once(i.to_string()).chain(row.iter().map(|v| format!("{v:.2}"))));
    }

    Ok(vec![table, matrix_table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "pins the relations between the paper's published constants"
    )]
    fn paper_constants_match_the_text() {
        assert!(PAPER_CIFAR_AVG > PAPER_IMAGENET_AVG);
        assert!(PAPER_IMAGENET_MAX > PAPER_IMAGENET_AVG);
        assert!(PAPER_CIFAR_MAX > PAPER_CIFAR_AVG);
    }
}
