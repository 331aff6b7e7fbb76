//! CART decision trees and bagged random forests for binary classification.

use ptolemy_tensor::Rng64;

use crate::{ForestError, Result};

/// Configuration of a single decision tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
        }
    }
}

/// Configuration of a [`RandomForest`].
///
/// The defaults mirror the paper's deployment: 100 trees of average depth ≈ 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Fraction of the training set bootstrapped for each tree.
    pub bootstrap_fraction: f32,
    /// Seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 100,
            tree: TreeConfig::default(),
            bootstrap_fraction: 1.0,
            seed: 0xF0E57,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        positive_fraction: f32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A single CART decision tree (Gini impurity, axis-aligned splits).
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    num_features: usize,
}

impl DecisionTree {
    /// Fits a tree to `(features, labels)` where `labels[i] == true` marks the
    /// positive (adversarial) class.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::InvalidTrainingData`] if the inputs are empty, have
    /// mismatched lengths, or a feature is NaN or infinite.
    pub fn fit(
        features: &[Vec<f32>],
        labels: &[bool],
        config: &TreeConfig,
        rng: &mut Rng64,
    ) -> Result<Self> {
        validate(features, labels)?;
        let num_features = features[0].len();
        let indices: Vec<usize> = (0..features.len()).collect();
        let root = build_node(features, labels, &indices, config, 0, num_features, rng);
        Ok(DecisionTree { root, num_features })
    }

    /// Probability that `sample` belongs to the positive class.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::FeatureCountMismatch`] if `sample` has the wrong
    /// number of features.
    pub fn predict_proba(&self, sample: &[f32]) -> Result<f32> {
        if sample.len() != self.num_features {
            return Err(ForestError::FeatureCountMismatch {
                expected: self.num_features,
                actual: sample.len(),
            });
        }
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { positive_fraction } => return Ok(*positive_fraction),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if sample[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Maximum depth of the fitted tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth_of(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + depth_of(left).max(depth_of(right)),
            }
        }
        depth_of(&self.root)
    }

    /// Number of decision nodes plus leaves (used by the MCU cost model).
    pub fn node_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

/// A bagged ensemble of [`DecisionTree`]s.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    num_features: usize,
}

impl RandomForest {
    /// Fits a forest to `(features, labels)`.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::InvalidTrainingData`] if the inputs are empty,
    /// mismatched, hold a NaN or infinite feature, or the configuration
    /// requests zero trees.
    pub fn fit(features: &[Vec<f32>], labels: &[bool], config: &ForestConfig) -> Result<Self> {
        validate(features, labels)?;
        if config.num_trees == 0 {
            return Err(ForestError::InvalidTrainingData(
                "forest needs at least one tree".into(),
            ));
        }
        let mut rng = Rng64::new(config.seed);
        let n = features.len();
        let bootstrap_n = ((n as f32) * config.bootstrap_fraction).ceil().max(1.0) as usize;
        let mut trees = Vec::with_capacity(config.num_trees);
        for _ in 0..config.num_trees {
            let mut boot_features = Vec::with_capacity(bootstrap_n);
            let mut boot_labels = Vec::with_capacity(bootstrap_n);
            for _ in 0..bootstrap_n {
                let idx = rng.below(n);
                boot_features.push(features[idx].clone());
                boot_labels.push(labels[idx]);
            }
            trees.push(DecisionTree::fit(
                &boot_features,
                &boot_labels,
                &config.tree,
                &mut rng,
            )?);
        }
        Ok(RandomForest {
            trees,
            num_features: features[0].len(),
        })
    }

    /// Mean positive-class probability over all trees.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::FeatureCountMismatch`] if `sample` has the wrong
    /// number of features.
    pub fn predict_proba(&self, sample: &[f32]) -> Result<f32> {
        let mut total = 0.0;
        for tree in &self.trees {
            total += tree.predict_proba(sample)?;
        }
        Ok(total / self.trees.len() as f32)
    }

    /// Hard decision at the 0.5 threshold.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::FeatureCountMismatch`] if `sample` has the wrong
    /// number of features.
    pub fn predict(&self, sample: &[f32]) -> Result<bool> {
        Ok(self.predict_proba(sample)? >= 0.5)
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the forest was fitted on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total decision/leaf node count, a proxy for the MCU operation count.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(DecisionTree::node_count).sum()
    }
}

fn validate(features: &[Vec<f32>], labels: &[bool]) -> Result<()> {
    if features.is_empty() || labels.is_empty() {
        return Err(ForestError::InvalidTrainingData(
            "empty training set".into(),
        ));
    }
    if features.len() != labels.len() {
        return Err(ForestError::InvalidTrainingData(format!(
            "{} feature rows but {} labels",
            features.len(),
            labels.len()
        )));
    }
    let width = features[0].len();
    if width == 0 {
        return Err(ForestError::InvalidTrainingData(
            "zero-width feature rows".into(),
        ));
    }
    if features.iter().any(|row| row.len() != width) {
        return Err(ForestError::InvalidTrainingData(
            "feature rows have inconsistent widths".into(),
        ));
    }
    // Split search sorts feature values, a total order only over finite ones.
    if let Some(row) = features
        .iter()
        .position(|row| row.iter().any(|v| !v.is_finite()))
    {
        return Err(ForestError::InvalidTrainingData(format!(
            "feature row {row} holds a non-finite value"
        )));
    }
    Ok(())
}

fn gini(positive: usize, total: usize) -> f32 {
    if total == 0 {
        return 0.0;
    }
    let p = positive as f32 / total as f32;
    2.0 * p * (1.0 - p)
}

fn build_node(
    features: &[Vec<f32>],
    labels: &[bool],
    indices: &[usize],
    config: &TreeConfig,
    depth: usize,
    num_features: usize,
    rng: &mut Rng64,
) -> Node {
    let positives = indices.iter().filter(|&&i| labels[i]).count();
    let positive_fraction = positives as f32 / indices.len().max(1) as f32;
    if depth >= config.max_depth
        || indices.len() < config.min_samples_split
        || positives == 0
        || positives == indices.len()
    {
        return Node::Leaf { positive_fraction };
    }

    // Random-forest style feature subsampling: examine ~sqrt(F) random features.
    let num_candidates = ((num_features as f32).sqrt().ceil() as usize).max(1);
    let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, impurity)
    for _ in 0..num_candidates.max(num_features.min(3)) {
        let feature = rng.below(num_features);
        let mut values: Vec<f32> = indices.iter().map(|&i| features[i][feature]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        for pair in values.windows(2) {
            let threshold = (pair[0] + pair[1]) / 2.0;
            let (mut lp, mut ln, mut rp, mut rn) = (0usize, 0usize, 0usize, 0usize);
            for &i in indices {
                let positive = labels[i];
                if features[i][feature] <= threshold {
                    if positive {
                        lp += 1;
                    } else {
                        ln += 1;
                    }
                } else if positive {
                    rp += 1;
                } else {
                    rn += 1;
                }
            }
            let (lt, rt) = (lp + ln, rp + rn);
            if lt == 0 || rt == 0 {
                continue;
            }
            let impurity =
                (lt as f32 * gini(lp, lt) + rt as f32 * gini(rp, rt)) / indices.len() as f32;
            if best.map(|(_, _, b)| impurity < b).unwrap_or(true) {
                best = Some((feature, threshold, impurity));
            }
        }
    }

    match best {
        None => Node::Leaf { positive_fraction },
        Some((feature, threshold, _)) => {
            let left_idx: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| features[i][feature] <= threshold)
                .collect();
            let right_idx: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| features[i][feature] > threshold)
                .collect();
            if left_idx.is_empty() || right_idx.is_empty() {
                return Node::Leaf { positive_fraction };
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build_node(
                    features,
                    labels,
                    &left_idx,
                    config,
                    depth + 1,
                    num_features,
                    rng,
                )),
                right: Box::new(build_node(
                    features,
                    labels,
                    &right_idx,
                    config,
                    depth + 1,
                    num_features,
                    rng,
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable_data(n: usize) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = Rng64::new(3);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let positive = i % 2 == 0;
            let base = if positive { 0.2 } else { 0.8 };
            features.push(vec![base + 0.05 * rng.normal(), rng.next_f32()]);
            labels.push(positive);
        }
        (features, labels)
    }

    #[test]
    fn tree_learns_a_separable_problem() {
        let (features, labels) = separable_data(200);
        let mut rng = Rng64::new(0);
        let tree = DecisionTree::fit(&features, &labels, &TreeConfig::default(), &mut rng).unwrap();
        assert!(tree.predict_proba(&[0.15, 0.5]).unwrap() > 0.7);
        assert!(tree.predict_proba(&[0.9, 0.5]).unwrap() < 0.3);
        assert!(tree.depth() >= 1);
        assert!(tree.node_count() >= 3);
        assert!(tree.predict_proba(&[0.1]).is_err());
    }

    #[test]
    fn forest_learns_and_reports_structure() {
        let (features, labels) = separable_data(200);
        let config = ForestConfig {
            num_trees: 20,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit(&features, &labels, &config).unwrap();
        assert_eq!(forest.num_trees(), 20);
        assert!(forest.predict(&[0.1, 0.5]).unwrap());
        assert!(!forest.predict(&[0.9, 0.5]).unwrap());
        assert!(forest.total_nodes() >= 60);
        let p = forest.predict_proba(&[0.5, 0.5]).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn invalid_training_inputs_are_rejected() {
        let mut rng = Rng64::new(0);
        assert!(DecisionTree::fit(&[], &[], &TreeConfig::default(), &mut rng).is_err());
        assert!(DecisionTree::fit(
            &[vec![1.0]],
            &[true, false],
            &TreeConfig::default(),
            &mut rng
        )
        .is_err());
        assert!(DecisionTree::fit(&[vec![]], &[true], &TreeConfig::default(), &mut rng).is_err());
        assert!(DecisionTree::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[true, false],
            &TreeConfig::default(),
            &mut rng
        )
        .is_err());
        assert!(RandomForest::fit(
            &[vec![1.0]],
            &[true],
            &ForestConfig {
                num_trees: 0,
                ..ForestConfig::default()
            }
        )
        .is_err());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let features = [vec![0.1, 0.2], vec![0.3, bad], vec![0.5, 0.6]];
            let labels = [true, false, true];
            assert!(
                matches!(
                    DecisionTree::fit(&features, &labels, &TreeConfig::default(), &mut rng),
                    Err(ForestError::InvalidTrainingData(_))
                ),
                "{bad}"
            );
            assert!(
                matches!(
                    RandomForest::fit(&features, &labels, &ForestConfig::default()),
                    Err(ForestError::InvalidTrainingData(_))
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn pure_training_set_yields_constant_predictions() {
        let features = vec![vec![0.3], vec![0.6], vec![0.9]];
        let labels = vec![true, true, true];
        let forest = RandomForest::fit(
            &features,
            &labels,
            &ForestConfig {
                num_trees: 5,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        assert_eq!(forest.predict_proba(&[0.5]).unwrap(), 1.0);
    }

    #[test]
    fn depth_respects_configuration() {
        let (features, labels) = separable_data(300);
        let mut rng = Rng64::new(1);
        let shallow = DecisionTree::fit(
            &features,
            &labels,
            &TreeConfig {
                max_depth: 2,
                min_samples_split: 2,
            },
            &mut rng,
        )
        .unwrap();
        assert!(shallow.depth() <= 2);
    }
}
