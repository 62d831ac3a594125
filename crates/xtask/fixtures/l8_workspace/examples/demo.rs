//! A root example: `--examples` builds it, so what it calls is reached.

fn main() {
    println!("{}", tvdp_alpha::shown());
}
