//! Offline class-path profiling (the static half of Fig. 4).

use ptolemy_nn::Network;
use ptolemy_tensor::parallel::par_map;
use ptolemy_tensor::Tensor;

use crate::extraction::{extract_path_streaming, ExtractionPlan};
use crate::{ActivationPath, ClassPath, ClassPathSet, CoreError, DetectionProgram, Result};

/// Offline profiler: extracts activation paths for correctly-predicted training
/// samples and aggregates them into per-class canary paths.
///
/// Profiling parallelises over samples ([`par_map`], gated on the
/// set's forward MACs), each sample running through the streaming extraction
/// pipeline as a batch of one ([`extract_path_streaming`]) so no full trace is
/// ever materialized; aggregation itself is a cheap sequential OR.
#[derive(Debug, Clone)]
pub struct Profiler {
    program: DetectionProgram,
}

impl Profiler {
    /// Creates a profiler for a detection program.
    pub fn new(program: DetectionProgram) -> Self {
        Profiler { program }
    }

    /// The program this profiler extracts paths with.
    pub fn program(&self) -> &DetectionProgram {
        &self.program
    }

    /// Extracts the activation path of a single input, returning the predicted class
    /// alongside it.
    ///
    /// # Errors
    ///
    /// Propagates extraction and substrate errors.
    pub fn extract(&self, network: &Network, input: &Tensor) -> Result<(usize, ActivationPath)> {
        let streamed = extract_path_streaming(network, &self.program, input)?;
        Ok((streamed.predicted_class, streamed.path))
    }

    /// Profiles a training set into a [`ClassPathSet`].
    ///
    /// Only samples whose prediction matches their label contribute (the paper
    /// aggregates paths of *correctly predicted* inputs); incorrectly-predicted
    /// samples are skipped, not treated as errors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if `samples` is empty or a label is out
    /// of range, and propagates extraction errors.
    pub fn profile(&self, network: &Network, samples: &[(Tensor, usize)]) -> Result<ClassPathSet> {
        if samples.is_empty() {
            return Err(CoreError::InvalidInput(
                "profiling requires at least one sample".into(),
            ));
        }
        if let Some((_, bad)) = samples
            .iter()
            .find(|(_, label)| *label >= network.num_classes())
        {
            return Err(CoreError::InvalidInput(format!(
                "label {bad} out of range for {} classes",
                network.num_classes()
            )));
        }
        let plan = ExtractionPlan::new(network, &self.program)?;

        let work = plan.forward_work(samples.len());
        let extracted: Vec<Result<Option<(usize, ActivationPath)>>> =
            par_map(samples, work, |(input, label)| {
                let keep =
                    |predicted: usize, path| Ok((predicted == *label).then_some((*label, path)));
                let (mut one, _) =
                    plan.stream_batch_with(network, std::slice::from_ref(input), &keep)?;
                Ok(one.pop().flatten())
            });

        let mut class_paths: Vec<ClassPath> = (0..network.num_classes())
            .map(|c| ClassPath::empty(c, plan.layout()))
            .collect();
        for item in extracted {
            if let Some((class, path)) = item? {
                class_paths[class].aggregate(&path)?;
            }
        }
        Ok(ClassPathSet::new(class_paths, self.program.fingerprint()))
    }
}

/// Pairwise Jaccard similarity between the canary paths of all classes — the
/// quantity plotted in Fig. 5 (and quoted for the large models in Sec. VII-H).
///
/// The diagonal is 1 by construction.
///
/// # Errors
///
/// Returns [`CoreError::IncompatiblePaths`] if the class paths do not share
/// structure (cannot happen for a set produced by [`Profiler::profile`]).
pub fn class_similarity_matrix(set: &ClassPathSet) -> Result<Vec<Vec<f32>>> {
    let n = set.num_classes();
    let mut matrix = vec![vec![0.0f32; n]; n];
    for (i, row) in matrix.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = if i == j {
                1.0
            } else {
                set.class_paths[i]
                    .path()
                    .jaccard(set.class_paths[j].path())?
            };
        }
    }
    Ok(matrix)
}

/// Summary statistics of the off-diagonal entries of a similarity matrix
/// (average, maximum and 90th percentile — the numbers the paper quotes in
/// Sec. III-A and Sec. VII-H).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityStats {
    /// Mean off-diagonal similarity.
    pub average: f32,
    /// Maximum off-diagonal similarity.
    pub max: f32,
    /// 90th-percentile off-diagonal similarity.
    pub p90: f32,
}

/// Computes [`SimilarityStats`] for a similarity matrix.
///
/// Returns zeros for matrices smaller than 2×2.
pub fn similarity_stats(matrix: &[Vec<f32>]) -> SimilarityStats {
    let mut off_diag: Vec<f32> = Vec::new();
    for (i, row) in matrix.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            if i != j {
                off_diag.push(*v);
            }
        }
    }
    if off_diag.is_empty() {
        return SimilarityStats {
            average: 0.0,
            max: 0.0,
            p90: 0.0,
        };
    }
    off_diag.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let average = off_diag.iter().sum::<f32>() / off_diag.len() as f32;
    let max = off_diag.last().copied().unwrap_or(0.0); // non-empty checked above
    let p90 = off_diag[((off_diag.len() as f32 * 0.9) as usize).min(off_diag.len() - 1)];
    SimilarityStats { average, max, p90 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{variants, Direction, ThresholdKind};
    use ptolemy_nn::{zoo, TrainConfig, Trainer};
    use ptolemy_tensor::Rng64;

    fn trained_setup() -> (Network, Vec<(Tensor, usize)>) {
        let mut rng = Rng64::new(5);
        let mut samples = Vec::new();
        for class in 0..3usize {
            for _ in 0..15 {
                let data: Vec<f32> = (0..8)
                    .map(|d| {
                        if d % 3 == class {
                            0.9 + 0.05 * rng.normal()
                        } else {
                            0.1 + 0.05 * rng.normal()
                        }
                    })
                    .collect();
                samples.push((Tensor::from_vec(data, &[8]).unwrap(), class));
            }
        }
        let mut net = zoo::mlp_net(&[8], 3, &mut rng).unwrap();
        Trainer::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        })
        .fit(&mut net, &samples)
        .unwrap();
        (net, samples)
    }

    #[test]
    fn profiling_builds_distinct_class_paths() {
        let (net, samples) = trained_setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let set = Profiler::new(program.clone())
            .profile(&net, &samples)
            .unwrap();
        assert_eq!(set.num_classes(), 3);
        assert_eq!(set.program_fingerprint, program.fingerprint());
        // Every class aggregated at least one path and has non-empty canary bits.
        for cp in &set.class_paths {
            assert!(cp.num_aggregated > 0, "class {} never aggregated", cp.class);
            assert!(cp.count_ones() > 0);
        }
        // Class paths are distinct (off-diagonal similarity < 1).
        let matrix = class_similarity_matrix(&set).unwrap();
        let stats = similarity_stats(&matrix);
        assert!(stats.average < 0.99);
        assert!(stats.max <= 1.0);
        assert!(stats.p90 >= stats.average || stats.p90 <= 1.0);
        for (i, row) in matrix.iter().enumerate() {
            assert!((row[i] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn benign_inputs_resemble_their_class_path() {
        let (net, samples) = trained_setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let profiler = Profiler::new(program);
        let set = profiler.profile(&net, &samples).unwrap();
        // A benign training sample's own path should be almost entirely contained in
        // its class path (it was OR-ed into it).
        let (predicted, path) = profiler.extract(&net, &samples[0].0).unwrap();
        let similarity = path.similarity(set.class_path(predicted).unwrap()).unwrap();
        assert!(similarity > 0.9, "similarity {similarity}");
    }

    #[test]
    fn profiling_rejects_bad_inputs() {
        let (net, _) = trained_setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let profiler = Profiler::new(program);
        assert!(profiler.profile(&net, &[]).is_err());
        let bad = vec![(Tensor::zeros(&[8]), 99usize)];
        assert!(profiler.profile(&net, &bad).is_err());
        assert!(profiler.program().num_weight_layers() > 0);
    }

    #[test]
    fn forward_profiles_work_too() {
        let (net, samples) = trained_setup();
        let program = crate::DetectionProgram::builder(Direction::Forward, 3)
            .all_layers(ThresholdKind::Absolute { phi: 0.3 })
            .build()
            .unwrap();
        let set = Profiler::new(program).profile(&net, &samples).unwrap();
        assert!(set.class_paths.iter().any(|cp| cp.count_ones() > 0));
    }

    #[test]
    fn similarity_stats_of_trivial_matrix() {
        let stats = similarity_stats(&[vec![1.0]]);
        assert_eq!(stats.average, 0.0);
        let stats = similarity_stats(&[vec![1.0, 0.2], vec![0.4, 1.0]]);
        assert!((stats.average - 0.3).abs() < 1e-6);
        assert!((stats.max - 0.4).abs() < 1e-6);
    }
}
