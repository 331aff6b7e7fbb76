//! ISA code generation: emits the per-layer instruction sequence the MCU dispatches.
//!
//! Register conventions (fixed by the code generator):
//!
//! | register | use |
//! |---|---|
//! | `r1` | receptive-field / sequence address |
//! | `r2` | current output-neuron position |
//! | `r3` | receptive-field size (from `.set`, via `mov`) |
//! | `r4` | current neuron address |
//! | `r5` | threshold |
//! | `r6` | sorted-sequence address |
//! | `r7` | current layer id |
//! | `r8` | input feature-map address |
//! | `r9` | weight address |
//! | `r10` | output feature-map address |
//! | `r11` | loop counter |
//! | `r12` | partial-sum / mask address |
//! | `r13` | class-path address |
//! | `r14` | activation-path address |
//! | `r15` | classification result |

use ptolemy_core::{DetectionProgram, ThresholdKind};
use ptolemy_isa::{Instruction, Program, Reg};

use crate::Result;

#[expect(
    clippy::expect_used,
    reason = "all call sites pass literal indices below 16"
)]
fn r(i: u8) -> Reg {
    Reg::new(i).expect("register indices below 16")
}

/// Generates the ISA program for a detection program (one `inf`/`infsp` per weight
/// layer, an extraction block per enabled layer, and a trailing `cls`).
///
/// # Errors
///
/// Currently infallible for valid [`DetectionProgram`]s; the `Result` is kept for
/// forward compatibility with immediate-range checks.
pub fn generate_isa(program: &DetectionProgram) -> Result<Program> {
    let mut code: Vec<Instruction> = Vec::new();
    let uses_cumulative = program.uses_cumulative_thresholds();

    for (ordinal, spec) in program.specs().iter().enumerate() {
        // Select the layer id.
        code.push(Instruction::Mov {
            dst: r(7),
            imm: ordinal as u16 & 0xFFF,
        });
        // Inference: `infsp` only when this layer's partial sums must be stored
        // (cumulative threshold without recompute is decided at schedule level; the
        // ISA always carries the more general `infsp` form for cumulative layers so
        // the FSM can choose).
        if spec.enabled && spec.threshold.is_cumulative() {
            code.push(Instruction::InfSp {
                input: r(8),
                weight: r(9),
                output: r(10),
                psum: r(12),
            });
        } else {
            code.push(Instruction::Inf {
                input: r(8),
                weight: r(9),
                output: r(10),
            });
        }
        if !spec.enabled {
            continue;
        }
        match spec.threshold {
            ThresholdKind::Cumulative { theta } => {
                // Scaled threshold constant and receptive-field size are compiler
                // constants loaded through `mov` (Listing 1).
                code.push(Instruction::Mov {
                    dst: r(5),
                    imm: ((theta * 1024.0) as u16).min(0xFFF),
                });
                code.push(Instruction::Mov {
                    dst: r(3),
                    imm: 0x200,
                });
                // Loop over important output neurons:
                //   findneuron -> findrf -> (csps) -> sort -> acum -> dec -> jne
                code.push(Instruction::FindNeuron {
                    layer: r(7),
                    position: r(2),
                    target: r(4),
                });
                code.push(Instruction::FindRf {
                    neuron: r(4),
                    rf: r(1),
                });
                code.push(Instruction::Csps {
                    output_neuron: r(4),
                    layer: r(7),
                    psum: r(12),
                });
                code.push(Instruction::Sort {
                    src: r(1),
                    len: r(3),
                    dst: r(6),
                });
                code.push(Instruction::Acum {
                    input: r(6),
                    output: r(1),
                    threshold: r(5),
                });
                code.push(Instruction::Dec { reg: r(11) });
                code.push(Instruction::Jne {
                    reg: r(11),
                    offset: -6,
                });
                code.push(Instruction::GenMasks {
                    input: r(1),
                    output: r(14),
                });
            }
            ThresholdKind::Absolute { phi } => {
                code.push(Instruction::Mov {
                    dst: r(5),
                    imm: ((phi * 1024.0) as u16).min(0xFFF),
                });
                // Masks were produced during inference; only mask aggregation runs.
                code.push(Instruction::GenMasks {
                    input: r(12),
                    output: r(14),
                });
            }
        }
    }

    code.push(Instruction::Cls {
        class_path: r(13),
        activation_path: r(14),
        result: r(15),
    });
    code.push(Instruction::Halt);

    // Programs must stay tiny (the paper quotes ~30 static instructions / <100 bytes
    // for its largest BwCu program); cumulative programs share one loop body per
    // layer, so this holds by construction, but keep an eye on it in debug builds.
    debug_assert!(
        !uses_cumulative || code.len() <= 16 * program.num_weight_layers() + 2,
        "generated program unexpectedly large"
    );
    Ok(Program { instructions: code })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_core::Direction;
    use ptolemy_isa::InstructionClass;

    #[test]
    fn cumulative_layers_emit_sort_loops() {
        let program = DetectionProgram::builder(Direction::Backward, 2)
            .all_layers(ThresholdKind::Cumulative { theta: 0.5 })
            .build()
            .unwrap();
        let isa = generate_isa(&program).unwrap();
        let mnemonics: Vec<&str> = isa.instructions.iter().map(|i| i.mnemonic()).collect();
        assert!(mnemonics.contains(&"infsp"));
        assert!(mnemonics.contains(&"sort"));
        assert!(mnemonics.contains(&"acum"));
        assert!(mnemonics.contains(&"csps"));
        assert!(mnemonics.contains(&"jne"));
        assert_eq!(*mnemonics.last().unwrap(), "halt");
        assert_eq!(mnemonics[mnemonics.len() - 2], "cls");
    }

    #[test]
    fn absolute_layers_avoid_sorting_entirely() {
        let program = DetectionProgram::builder(Direction::Forward, 3)
            .all_layers(ThresholdKind::Absolute { phi: 0.3 })
            .build()
            .unwrap();
        let isa = generate_isa(&program).unwrap();
        let mnemonics: Vec<&str> = isa.instructions.iter().map(|i| i.mnemonic()).collect();
        assert!(!mnemonics.contains(&"sort"));
        assert!(!mnemonics.contains(&"acum"));
        assert!(!mnemonics.contains(&"infsp"));
        assert!(mnemonics.contains(&"genmasks"));
        // Three inference instructions, one per layer.
        assert_eq!(mnemonics.iter().filter(|m| **m == "inf").count(), 3);
    }

    #[test]
    fn disabled_layers_emit_plain_inference_only() {
        let program = DetectionProgram::builder(Direction::Forward, 4)
            .all_layers(ThresholdKind::Absolute { phi: 0.3 })
            .disable_before(3)
            .build()
            .unwrap();
        let isa = generate_isa(&program).unwrap();
        let genmasks = isa
            .instructions
            .iter()
            .filter(|i| i.mnemonic() == "genmasks")
            .count();
        assert_eq!(genmasks, 1);
    }

    #[test]
    fn programs_are_small_and_roundtrip_through_encoding() {
        let program = DetectionProgram::builder(Direction::Backward, 8)
            .all_layers(ThresholdKind::Cumulative { theta: 0.9 })
            .build()
            .unwrap();
        let isa = generate_isa(&program).unwrap();
        // Every instruction encodes and decodes.
        for inst in &isa.instructions {
            assert_eq!(
                ptolemy_isa::Instruction::decode(inst.encode()).unwrap(),
                *inst
            );
        }
        // Only valid instruction classes appear.
        assert!(isa
            .instructions
            .iter()
            .any(|i| i.class() == InstructionClass::PathConstruction));
    }
}
