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
//! with random *legal* schedules (valid by construction against
//! `halide_schedule::legality`, a conservative subset of the rules lowering
//! enforces itself), runs each through the matrix plus a pooled-output
//! check, and on failure shrinks to a minimal reproduction for the corpus.
//!
//! Pieces:
//!
//! * [`grammar`] — the [`grammar::FuzzCase`] data model and the seeded
//!   generator;
//! * [`build`] — case → live `Pipeline`, and the case-level validity
//!   predicate shared by generation, shrinking, and replay;
//! * [`run`] — the differential runner (one case, four realizations);
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

pub use build::{build_pipeline, validate_case};
pub use corpus::{from_text, to_text};
pub use grammar::{generate, FuzzCase};
pub use run::run_case;
pub use shrink::shrink;
