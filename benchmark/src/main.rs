fn main() {
    std::process::exit(agora_benchmark::cli::main(std::env::args().skip(1).collect()));
}
