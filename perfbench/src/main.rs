//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result as the last stdout line.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match beamdyn_perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match beamdyn_perfbench::run(&args) {
        Ok(outcome) => println!("{}", outcome.to_json(args.trace)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
