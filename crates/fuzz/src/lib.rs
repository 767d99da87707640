//! # halide-fuzz
//!
//! Grammar-driven differential fuzzing for the whole compiler stack.
//!
//! The repo's strongest correctness asset is its differential matrix — the
//! interpreter, the compiled engine at `OptLevel::None`, and the compiled
//! engine at `OptLevel::Default` must produce bit-identical outputs *and*
//! identical work counters on every pipeline. This crate generates the
//! pipelines: seeded, random-but-valid func DAGs (point ops, stencils,
//! reductions, scans, multi-stage chains over odd and sub-vector extents)
//! with random *legal* schedules (valid by construction: a directive is
//! kept only if the case still lowers — the compiler is the one judge of a
//! schedule), runs each through the matrix, a pooled-output check and a
//! schedule-invariance check, and on failure shrinks to a minimal
//! reproduction for the corpus.
//!
//! Pieces:
//!
//! * [`grammar`] — the [`grammar::FuzzCase`] data model and the seeded
//!   generator;
//! * [`build`] — case → live `Pipeline`, and [`build::admit`], the one
//!   admission check shared by generation, shrinking, and replay;
//! * [`run`] — the differential runner (one case, four realizations, plus
//!   the unscheduled reference, inlines kept, the schedule must not change);
//! * [`mod@shrink`] — greedy minimization of failing cases;
//! * [`corpus`] — the text format regression cases are stored in.
//!
//! The `halide-fuzz` binary drives campaigns
//! (`cargo run -p halide-fuzz -- --cases 500 --seed 0`); the
//! `corpus_replay` integration test replays every checked-in case on every
//! `cargo test`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod corpus;
pub mod grammar;
pub mod run;
pub mod shrink;

pub use build::{admit, build_pipeline};
pub use corpus::{from_text, to_text};
pub use grammar::{generate, FuzzCase};
pub use run::run_case;
pub use shrink::shrink;
