//! Regenerates the paper's Fig. 9 scenario: translational reuse of
//! street-cleanliness annotations for homeless counting, plus the
//! graffiti follow-on study over the same data.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "L4-exempt: a benchmark driver measures wall-clock time"
)]

use tvdp_bench::{run_fig9, Fig9Config};

fn main() {
    let scale: usize = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let config = Fig9Config {
        n_images: 900 * scale,
        ..Default::default()
    };
    eprintln!(
        "fig9: {} images, {}% human-labelled, seed {:#x}",
        config.n_images,
        (config.labelled_fraction * 100.0) as u32,
        config.seed
    );
    let t0 = std::time::Instant::now();
    let r = run_fig9(&config);
    eprintln!("fig9: done in {:.1}s", t0.elapsed().as_secs_f64());

    println!("\nFig. 9 — Translational Data Scenario\n");
    println!("LASAN uploads + labels        -> USC trains cleanliness model");
    println!(
        "  cleanliness macro F1 on new images : {:.3}",
        r.cleanliness_f1
    );
    println!("\nHomeless Coordinator reuses 'encampment' annotations (no new learning):");
    println!(
        "  encampment precision               : {:.3}",
        r.encampment_precision
    );
    println!(
        "  encampment recall                  : {:.3}",
        r.encampment_recall
    );
    println!(
        "  tents counted / ground truth       : {} / {}",
        r.tents_counted, r.tents_ground_truth
    );
    println!(
        "  hotspot cells (densest holds {:>3})  : {}",
        r.top_hotspot_count, r.hotspot_cells
    );
    println!(
        "\nGraffiti study over the SAME {} stored images:",
        r.images_reused
    );
    println!(
        "  graffiti macro F1                  : {:.3}",
        r.graffiti_f1
    );
    println!("\npaper shape: one dataset, three studies — zero additional collection");
}
