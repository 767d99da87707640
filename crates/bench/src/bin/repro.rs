//! Regenerates the paper's tables, one subcommand each:
//!
//! ```text
//! cargo run --release -p halide-bench --bin repro -- fig3
//! cargo run --release -p halide-bench --bin repro -- fig7 --full --threads 4
//! cargo run --release -p halide-bench --bin repro -- sec61 --quick --backend interp
//! ```
//!
//! `fig3 fig6 fig7 fig8` are the figures of the same number,
//! `sec31 sec5 sec61` the claims of Sec. 3.1, 5 and 6.1, and `ablation` the
//! sliding-window / storage-folding ablation. The tables themselves are
//! built in `halide_bench` (see `halide_bench::tables`).

use halide_bench::{tables, Args, CliSpec, SUBCOMMANDS};

fn main() {
    let args = Args::from_env(&CliSpec {
        usage: "repro <fig3|fig6|fig7|fig8|sec31|sec5|sec61|ablation> \
                [--quick|--full] [--threads N] [--backend compiled|interp]",
        subcommands: &SUBCOMMANDS,
        switches: &[],
        valued: &[],
    });
    let subcommand = args.subcommand().expect("the spec requires a subcommand");
    let tables = tables(subcommand, &args.config()).expect("the parser accepts only known names");
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            println!();
        }
        table.print();
    }
}
