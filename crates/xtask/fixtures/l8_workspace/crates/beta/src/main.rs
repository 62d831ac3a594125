//! The one shipped caller of `tvdp-alpha`.

use tvdp_alpha::Counter;

fn main() {
    let mut c = Counter::new();
    c.bump();
    c.reset();
    let g = tvdp_alpha::Gauge::new(3);
    println!("{} {}", g.level(), tvdp_alpha::capability());
}
