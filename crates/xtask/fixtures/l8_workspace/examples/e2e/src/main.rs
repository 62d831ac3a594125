//! Stand-in for the benchmark package: the probe does not build it, so
//! what only it calls is reported.

fn main() {
    println!("{}", tvdp_alpha::bench_only());
}
