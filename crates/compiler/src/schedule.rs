//! Task-level compilation: the static schedule with dependence edges.

use ptolemy_core::{DetectionProgram, Direction};
use ptolemy_isa::Program;
use ptolemy_nn::Network;

use crate::{codegen::generate_isa, CompilerError, Result};

/// Compiler optimisation switches (all enabled by default, matching the paper's
/// evaluation where "all the compiler optimizations are enabled when applicable").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationFlags {
    /// Overlap layer *j*'s extraction with layer *j+1*'s inference (forward only).
    pub layer_pipelining: bool,
    /// Overlap sort and accumulate of different important neurons within a layer.
    pub neuron_pipelining: bool,
    /// Re-compute partial sums of important receptive fields (`csps`) instead of
    /// storing every partial sum during inference (cumulative thresholds only).
    pub recompute_partial_sums: bool,
}

impl Default for OptimizationFlags {
    fn default() -> Self {
        OptimizationFlags {
            layer_pipelining: true,
            neuron_pipelining: true,
            recompute_partial_sums: true,
        }
    }
}

impl OptimizationFlags {
    /// All optimisations disabled (the unoptimised baseline for ablation benches).
    pub fn none() -> Self {
        OptimizationFlags {
            layer_pipelining: false,
            neuron_pipelining: false,
            recompute_partial_sums: false,
        }
    }
}

/// Hardware unit a task executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwUnit {
    /// The systolic MAC array.
    PeArray,
    /// The path constructor (sort units, merge tree, accumulator, mask generator).
    PathConstructor,
    /// The micro-controller running dispatch and the random forest.
    Mcu,
}

/// A coarse-grained hardware task (one CISC instruction's worth of work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwTask {
    /// Run one weight layer's inference on the PE array (`inf` / `infsp`).
    Inference {
        /// Network layer index.
        layer: usize,
        /// Whether every partial sum is written to memory (`infsp`).
        store_partial_sums: bool,
    },
    /// Re-compute the partial sums of the important receptive fields of one layer
    /// (`csps`, first PE row only).
    RecomputePartialSums {
        /// Network layer index.
        layer: usize,
    },
    /// Extract important neurons and generate the mask for one layer
    /// (`findneuron`/`findrf`/`sort`/`acum`/`genmasks` block).
    Extract {
        /// Network layer index.
        layer: usize,
        /// `true` for cumulative thresholds (sorting + accumulation needed).
        cumulative: bool,
        /// `true` for forward extraction.
        forward: bool,
    },
    /// Compute path similarity and run the random forest (`cls` + MCU work).
    Classify,
}

impl HwTask {
    /// The unit this task occupies.
    pub fn unit(&self) -> HwUnit {
        match self {
            HwTask::Inference { .. } | HwTask::RecomputePartialSums { .. } => HwUnit::PeArray,
            HwTask::Extract { .. } => HwUnit::PathConstructor,
            HwTask::Classify => HwUnit::Mcu,
        }
    }
}

/// A task with its dependence edges (indices into the task list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTask {
    /// The work to perform.
    pub task: HwTask,
    /// Indices of tasks that must finish before this one starts.
    pub depends_on: Vec<usize>,
}

/// The compiler output: ISA program + static task schedule.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Coarse-grained tasks with dependence edges (what the accelerator model runs).
    pub tasks: Vec<ScheduledTask>,
    /// The binary ISA program (what the MCU would dispatch).
    pub isa: Program,
    /// Optimisations that were applied.
    pub optimizations: OptimizationFlags,
    /// Extraction direction of the source program.
    pub direction: Direction,
}

impl CompiledProgram {
    /// Number of static instructions (the paper reports ≈ 30 for its largest
    /// program).
    pub fn static_instruction_count(&self) -> usize {
        self.isa.instructions.len()
    }

    /// Compiled program size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.isa.size_bytes()
    }

    /// Indices of inference tasks, in task order.
    pub fn inference_tasks(&self) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.task, HwTask::Inference { .. }))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The Ptolemy compiler.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    optimizations: OptimizationFlags,
}

impl Compiler {
    /// Creates a compiler with explicit optimisation flags.
    pub fn new(optimizations: OptimizationFlags) -> Self {
        Compiler { optimizations }
    }

    /// The optimisation flags this compiler applies.
    pub fn optimizations(&self) -> OptimizationFlags {
        self.optimizations
    }

    /// Compiles a detection program for a concrete network.
    ///
    /// # Errors
    ///
    /// Returns [`CompilerError::InvalidProgram`] if the program does not describe
    /// the network's weight layers.
    pub fn compile(
        &self,
        network: &Network,
        program: &DetectionProgram,
    ) -> Result<CompiledProgram> {
        let weight_layers = network.weight_layer_indices();
        if weight_layers.len() != program.num_weight_layers() {
            return Err(CompilerError::InvalidProgram(format!(
                "program describes {} weight layers, network has {}",
                program.num_weight_layers(),
                weight_layers.len()
            )));
        }
        let tasks = match program.direction() {
            Direction::Forward => self.schedule_forward(&weight_layers, program),
            Direction::Backward => self.schedule_backward(&weight_layers, program),
        };
        let isa = generate_isa(program)?;
        Ok(CompiledProgram {
            tasks,
            isa,
            optimizations: self.optimizations,
            direction: program.direction(),
        })
    }

    fn schedule_forward(
        &self,
        weight_layers: &[usize],
        program: &DetectionProgram,
    ) -> Vec<ScheduledTask> {
        let mut tasks: Vec<ScheduledTask> = Vec::new();
        let mut prev_inference: Option<usize> = None;
        let mut prev_program_order: Option<usize> = None;
        let mut last_extract: Option<usize> = None;
        for (ordinal, &layer) in weight_layers.iter().enumerate() {
            let spec = program.specs()[ordinal];
            // Forward extraction with absolute thresholds never needs stored partial
            // sums (masks are produced inside the MAC units); cumulative forward
            // extraction needs partial sums unless recompute is enabled.
            let store = spec.enabled
                && spec.threshold.is_cumulative()
                && !self.optimizations.recompute_partial_sums;
            let inf_deps: Vec<usize> = match (
                self.optimizations.layer_pipelining,
                prev_inference,
                prev_program_order,
            ) {
                // Pipelined: inference only waits for the previous inference.
                (true, Some(p), _) => vec![p],
                // Unpipelined: strict program order (inference waits for the
                // previous layer's extraction too).
                (false, _, Some(p)) => vec![p],
                _ => Vec::new(),
            };
            tasks.push(ScheduledTask {
                task: HwTask::Inference {
                    layer,
                    store_partial_sums: store,
                },
                depends_on: inf_deps,
            });
            let inf_idx = tasks.len() - 1;
            prev_inference = Some(inf_idx);
            prev_program_order = Some(inf_idx);
            if spec.enabled {
                if spec.threshold.is_cumulative() && self.optimizations.recompute_partial_sums {
                    tasks.push(ScheduledTask {
                        task: HwTask::RecomputePartialSums { layer },
                        depends_on: vec![inf_idx],
                    });
                }
                let extract_deps = vec![tasks.len() - 1];
                tasks.push(ScheduledTask {
                    task: HwTask::Extract {
                        layer,
                        cumulative: spec.threshold.is_cumulative(),
                        forward: true,
                    },
                    depends_on: extract_deps,
                });
                last_extract = Some(tasks.len() - 1);
                prev_program_order = Some(tasks.len() - 1);
            }
        }
        let classify_deps = last_extract
            .or(prev_inference)
            .map(|i| vec![i])
            .unwrap_or_default();
        tasks.push(ScheduledTask {
            task: HwTask::Classify,
            depends_on: classify_deps,
        });
        tasks
    }

    fn schedule_backward(
        &self,
        weight_layers: &[usize],
        program: &DetectionProgram,
    ) -> Vec<ScheduledTask> {
        let mut tasks: Vec<ScheduledTask> = Vec::new();
        // Inference of every layer first (backward extraction can only start after
        // the prediction is known).
        let mut prev: Option<usize> = None;
        for (ordinal, &layer) in weight_layers.iter().enumerate() {
            let spec = program.specs()[ordinal];
            let store = spec.enabled
                && spec.threshold.is_cumulative()
                && !self.optimizations.recompute_partial_sums;
            tasks.push(ScheduledTask {
                task: HwTask::Inference {
                    layer,
                    store_partial_sums: store,
                },
                depends_on: prev.map(|p| vec![p]).unwrap_or_default(),
            });
            prev = Some(tasks.len() - 1);
        }
        // DetectionProgram::build rejects zero weight layers, and the mismatch
        // check above pins weight_layers to the program's layer count.
        #[expect(
            clippy::expect_used,
            reason = "weight_layers is structurally non-empty"
        )]
        let last_inference = prev.expect("network has at least one weight layer");
        // Extraction walks the enabled layers from last to first, each step depending
        // on the previous one (the important-neuron sets chain backwards).
        let mut prev_extract: Option<usize> = None;
        for (ordinal, &layer) in weight_layers.iter().enumerate().rev() {
            let spec = program.specs()[ordinal];
            if !spec.enabled {
                continue;
            }
            let mut deps = vec![last_inference];
            if let Some(p) = prev_extract {
                deps.push(p);
            }
            if spec.threshold.is_cumulative() && self.optimizations.recompute_partial_sums {
                tasks.push(ScheduledTask {
                    task: HwTask::RecomputePartialSums { layer },
                    depends_on: deps.clone(),
                });
                deps = vec![tasks.len() - 1];
            }
            tasks.push(ScheduledTask {
                task: HwTask::Extract {
                    layer,
                    cumulative: spec.threshold.is_cumulative(),
                    forward: false,
                },
                depends_on: deps,
            });
            prev_extract = Some(tasks.len() - 1);
        }
        tasks.push(ScheduledTask {
            task: HwTask::Classify,
            depends_on: prev_extract
                .or(Some(last_inference))
                .map(|i| vec![i])
                .unwrap_or_default(),
        });
        tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_core::variants;
    use ptolemy_nn::zoo;
    use ptolemy_tensor::Rng64;

    fn net() -> Network {
        zoo::conv_net(10, &mut Rng64::new(0)).unwrap()
    }

    #[test]
    fn forward_pipelined_extraction_depends_only_on_own_inference() {
        let net = net();
        let program = variants::fw_ab(&net, 0.3).unwrap();
        let compiled = Compiler::default().compile(&net, &program).unwrap();
        assert_eq!(compiled.direction, Direction::Forward);
        // Every extract task depends on exactly one task, which is an inference of
        // the same layer.
        for st in &compiled.tasks {
            if let HwTask::Extract { layer, forward, .. } = st.task {
                assert!(forward);
                assert_eq!(st.depends_on.len(), 1);
                match compiled.tasks[st.depends_on[0]].task {
                    HwTask::Inference { layer: l, .. } => assert_eq!(l, layer),
                    ref other => panic!("unexpected dependency {other:?}"),
                }
            }
        }
        // Classify is last.
        assert!(matches!(
            compiled.tasks.last().unwrap().task,
            HwTask::Classify
        ));
    }

    #[test]
    fn unpipelined_forward_serialises_program_order() {
        let net = net();
        let program = variants::fw_ab(&net, 0.3).unwrap();
        let compiled = Compiler::new(OptimizationFlags::none())
            .compile(&net, &program)
            .unwrap();
        // Without layer pipelining every inference (except the first) depends on the
        // task immediately preceding it in program order.
        for (i, st) in compiled.tasks.iter().enumerate() {
            if i == 0 {
                continue;
            }
            if matches!(st.task, HwTask::Inference { .. }) {
                assert_eq!(st.depends_on, vec![i - 1]);
            }
        }
    }

    #[test]
    fn backward_extraction_waits_for_all_inference_and_chains() {
        let net = net();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let compiled = Compiler::default().compile(&net, &program).unwrap();
        let inference_count = compiled.inference_tasks().len();
        assert_eq!(inference_count, 8);
        let last_inference = *compiled.inference_tasks().last().unwrap();
        let extracts: Vec<usize> = compiled
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.task, HwTask::Extract { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(extracts.len(), 8);
        // The first extraction (last layer) transitively depends on the last
        // inference; with recompute enabled the direct dependency is a csps task.
        let first_extract = &compiled.tasks[extracts[0]];
        let dep = first_extract.depends_on[0];
        let dep_ok =
            dep == last_inference || compiled.tasks[dep].depends_on.contains(&last_inference);
        assert!(dep_ok);
        // With recompute enabled there are csps tasks and no stored partial sums.
        assert!(compiled
            .tasks
            .iter()
            .any(|t| matches!(t.task, HwTask::RecomputePartialSums { .. })));
        assert!(compiled.tasks.iter().all(|t| !matches!(
            t.task,
            HwTask::Inference {
                store_partial_sums: true,
                ..
            }
        )));
    }

    #[test]
    fn disabling_recompute_stores_partial_sums_instead() {
        let net = net();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let compiled = Compiler::new(OptimizationFlags {
            recompute_partial_sums: false,
            ..OptimizationFlags::default()
        })
        .compile(&net, &program)
        .unwrap();
        assert!(compiled.tasks.iter().any(|t| matches!(
            t.task,
            HwTask::Inference {
                store_partial_sums: true,
                ..
            }
        )));
        assert!(!compiled
            .tasks
            .iter()
            .any(|t| matches!(t.task, HwTask::RecomputePartialSums { .. })));
    }

    #[test]
    fn absolute_threshold_programs_never_touch_partial_sums() {
        let net = net();
        let program = variants::bw_ab(&net, 0.3).unwrap();
        let compiled = Compiler::default().compile(&net, &program).unwrap();
        assert!(!compiled.tasks.iter().any(|t| matches!(
            t.task,
            HwTask::RecomputePartialSums { .. }
                | HwTask::Inference {
                    store_partial_sums: true,
                    ..
                }
        )));
    }

    #[test]
    fn compiled_isa_is_small_and_units_are_assigned() {
        let net = net();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let compiled = Compiler::default().compile(&net, &program).unwrap();
        assert!(compiled.static_instruction_count() > 8);
        // The generator unrolls the per-layer extraction blocks (the paper's ~30
        // instruction figure uses a layer loop); even unrolled the program stays
        // well below a kilobyte of instruction storage.
        assert!(compiled.size_bytes() < 512);
        for st in &compiled.tasks {
            match st.task {
                HwTask::Inference { .. } | HwTask::RecomputePartialSums { .. } => {
                    assert_eq!(st.task.unit(), HwUnit::PeArray)
                }
                HwTask::Extract { .. } => assert_eq!(st.task.unit(), HwUnit::PathConstructor),
                HwTask::Classify => assert_eq!(st.task.unit(), HwUnit::Mcu),
            }
        }
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let net = net();
        let other = zoo::lenet(3, 10, &mut Rng64::new(1)).unwrap();
        let program = variants::bw_cu(&other, 0.5).unwrap();
        assert!(Compiler::default().compile(&net, &program).is_err());
        assert!(Compiler::default().optimizations().layer_pipelining);
    }
}
