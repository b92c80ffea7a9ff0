//! Command-line harness that regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! cargo run -p bench --release --bin figures -- all
//! cargo run -p bench --release --bin figures -- fig10 --keys 1000000 --threads 16
//! ```
//!
//! Output is a plain-text table per experiment (one row per x-axis category,
//! one column per series).

use std::env;
use std::process::ExitCode;

use bench::figures::{self, FigureScale, Row};

fn print_usage() {
    eprintln!(
        "usage: figures [table1|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|all]\n\
         options:\n\
           --keys N      keys per keyset (default {})\n\
           --probes N    lookup probes per measurement (default 2x keys)\n\
           --threads N   maximum threads (default: min(16, cores))\n\
           --seed N      RNG seed (default 42)",
        workloads::DEFAULT_SCALE
    );
}

fn parse_args() -> Option<(Vec<String>, FigureScale)> {
    let mut scale = FigureScale::default();
    let mut selected: Vec<String> = Vec::new();
    let mut args = env::args().skip(1);
    let mut probes_overridden = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--keys" => {
                scale.keys = args.next()?.parse().ok()?;
                if !probes_overridden {
                    scale.probes = scale.keys * 2;
                }
            }
            "--probes" => {
                scale.probes = args.next()?.parse().ok()?;
                probes_overridden = true;
            }
            "--threads" => scale.threads = args.next()?.parse().ok()?,
            "--seed" => scale.seed = args.next()?.parse().ok()?,
            "--help" | "-h" => return None,
            name => selected.push(name.to_string()),
        }
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    Some((selected, scale))
}

/// Prints a set of rows as an aligned text table.
fn print_rows(title: &str, unit: &str, rows: &[Row]) {
    println!("\n=== {title} ===  (values in {unit})");
    if rows.is_empty() {
        println!("(no data)");
        return;
    }
    let series: Vec<String> = rows[0].values.iter().map(|(n, _)| n.clone()).collect();
    let label_width = rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once(4))
        .max()
        .unwrap();
    print!("{:<width$}", "", width = label_width + 2);
    for s in &series {
        print!("{s:>22}");
    }
    println!();
    for row in rows {
        print!("{:<width$}", row.label, width = label_width + 2);
        for s in &series {
            match row.value(s) {
                Some(v) => print!("{v:>22.3}"),
                None => print!("{:>22}", "-"),
            }
        }
        println!();
    }
}

fn print_table1(scale: &FigureScale) {
    let rows = figures::table1(scale);
    println!("\n=== Table 1: keysets ===");
    println!(
        "{:<6} {:<55} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "Name", "Description", "Paper keys", "Paper GB", "Gen keys", "Avg len", "Gen MB"
    );
    for r in rows {
        println!(
            "{:<6} {:<55} {:>10.0}M {:>10.1} {:>12} {:>12.1} {:>12.1}",
            r.name,
            r.description,
            r.paper_keys_millions,
            r.paper_size_gb,
            r.generated_keys,
            r.generated_avg_len,
            r.generated_mb
        );
    }
}

fn run(name: &str, scale: &FigureScale) -> bool {
    match name {
        "table1" => print_table1(scale),
        "fig9" => print_rows(
            "Figure 9: lookup throughput vs threads (Az1)",
            "MOPS",
            &figures::fig9(scale),
        ),
        "fig10" => print_rows(
            "Figure 10: lookup throughput on local CPU",
            "MOPS",
            &figures::fig10(scale),
        ),
        "fig11" => print_rows(
            "Figure 11: throughput with optimizations applied",
            "MOPS",
            &figures::fig11(scale),
        ),
        "fig12" => print_rows(
            "Figure 12: lookup throughput on a networked key-value store",
            "MOPS",
            &figures::fig12(scale),
        ),
        "fig13" => print_rows(
            "Figure 13: Wormhole vs cuckoo hash table",
            "MOPS",
            &figures::fig13(scale),
        ),
        "fig14" => print_rows(
            "Figure 14: lookup throughput for keysets of short and long common prefixes",
            "MOPS",
            &figures::fig14(scale),
        ),
        "fig15" => print_rows(
            "Figure 15: throughput of continuous insertions (1 thread)",
            "MOPS",
            &figures::fig15(scale),
        ),
        "fig16" => print_rows(
            "Figure 16: memory usage of the indexes",
            "MB",
            &figures::fig16(scale),
        ),
        "fig17" => print_rows(
            "Figure 17: throughput of mixed lookups and insertions",
            "MOPS",
            &figures::fig17(scale),
        ),
        "fig18" => print_rows(
            "Figure 18: throughput of range lookups (100-key scans)",
            "M queries/s",
            &figures::fig18(scale),
        ),
        other => {
            eprintln!("unknown experiment: {other}");
            return false;
        }
    }
    true
}

fn main() -> ExitCode {
    let Some((selected, scale)) = parse_args() else {
        print_usage();
        return ExitCode::FAILURE;
    };
    println!(
        "wormhole-repro figures: keys={} probes={} threads={} seed={}",
        scale.keys, scale.probes, scale.threads, scale.seed
    );
    let all = [
        "table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18",
    ];
    let list: Vec<&str> = if selected.iter().any(|s| s == "all") {
        all.to_vec()
    } else {
        selected.iter().map(|s| s.as_str()).collect()
    };
    for name in list {
        if !run(name, &scale) {
            print_usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
