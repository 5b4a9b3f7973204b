//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! prints every metric by name with its unit, then, as its last line,
//! the JSON result. `perfbench --record-reference` prints a fresh
//! reference document for `reference.json`.

use perfbench::{record_reference, run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record-reference"] {
        print!("{}", record_reference());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-thermal|numa64-open|numa64-par|fleet64> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    print!("{}", outcome.render());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
