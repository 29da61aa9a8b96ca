//! `son-exp` — runs the experiments of `EXPERIMENTS.md` by name and gates
//! their `BENCH_*.json` rows; the command line is [`son_bench::exp::main`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = son_bench::exp::main(&args) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
