//! The paper's future-work scenario (Section VIII): TVDP as a disaster
//! data platform. A wildfire breaks out; a spatial-crowdsourcing campaign
//! drives drone/mobile capture of the affected area until every cell is
//! photographed from several directions, and responders use directed and
//! temporal queries for situation awareness.
//!
//! Run with: `cargo run --release --example disaster_response`

use tvdp_kernel::rng::Rng;

use tvdp::crowd::simulate::AssignStrategy;
use tvdp::crowd::{Campaign, SimulationConfig};
use tvdp::geo::{AngularRange, BBox, CoverageSpec, GeoPoint};
use tvdp::platform::{PlatformConfig, Role, Tvdp};
use tvdp::query::{Query, SpatialQuery, TemporalField};
use tvdp::vision::Image;

/// Synthesizes a smoke-tinged aerial frame for a capture pose.
fn drone_frame(rng: &mut Rng) -> Image {
    let smoke = rng.gen_range(60..200u16);
    Image::from_fn(48, 48, |x, y| {
        let terrain = ((x * 7 + y * 13) % 31) as u16 * 3;
        let v = (terrain + smoke).min(255) as u8;
        [v, v.saturating_sub(20), v.saturating_sub(40)]
    })
}

fn main() {
    let tvdp = Tvdp::new(PlatformConfig::default());
    let agency = tvdp.register_user("Emergency Management", Role::Government);
    let _ngo = tvdp.register_user("Relief NGO", Role::CommunityPartner);

    // 1. Declare the affected area and the coverage goal: every 100 m
    //    cell seen from at least 4 of 8 compass directions.
    let fire_origin = GeoPoint::new(34.08, -118.45);
    let ne = fire_origin.destination(0.0, 800.0);
    let e = fire_origin.destination(90.0, 800.0);
    let area = BBox::new(fire_origin.lat, fire_origin.lon, ne.lat, e.lon);
    let campaign = Campaign::new(
        "wildfire-situation-awareness",
        CoverageSpec::new(area, 100.0, 8),
        4,
        10, // reward points: time-critical tasks pay more
    );
    println!(
        "wildfire campaign over {:.2} km^2, goal: 4 directions per cell",
        area.area_m2() / 1e6
    );

    // 2. Run the iterative campaign; every captured FOV becomes an
    //    ingested drone frame.
    let mut rng = Rng::seed_from_u64(0xF12E);
    let mut t = 1_700_000_000i64;
    let sim = SimulationConfig {
        n_workers: 30,
        worker_range_m: 400.0,
        round_budget: 400,
        max_rounds: 10,
        strategy: AssignStrategy::Matching,
        ..Default::default()
    };
    let (report, ids) = tvdp
        .acquire_via_campaign(agency, &campaign, &sim, |_fov| {
            t += rng.gen_range(5..40);
            (
                drone_frame(&mut rng),
                vec!["wildfire".into(), "drone".into()],
                t,
            )
        })
        .expect("campaign");
    println!(
        "campaign: {} tasks issued, {} frames captured over {} rounds (goal met: {})",
        report.tasks_issued,
        ids.len(),
        report.rounds.len(),
        report.satisfied
    );
    for (i, round) in report.rounds.iter().enumerate() {
        println!(
            "  round {:>2}: cell coverage {:>5.1}%  direction coverage {:>5.1}%",
            i + 1,
            round.cell_coverage * 100.0,
            round.direction_coverage * 100.0
        );
    }

    // 3. Situation awareness queries.
    // Which frames look north toward the ridge?
    let north = tvdp
        .search(&Query::Spatial(SpatialQuery::Directed {
            region: area,
            directions: AngularRange::centered(0.0, 45.0),
        }))
        .expect("valid query");
    println!(
        "\nframes looking north over the fire area : {}",
        north.len()
    );

    // What arrived in the last simulated ten minutes?
    let fresh = tvdp
        .search(&Query::Temporal {
            field: TemporalField::Captured,
            from: t - 600,
            to: t,
        })
        .expect("valid query");
    println!("frames from the last 10 minutes          : {}", fresh.len());

    // Who can see the fire origin right now?
    let eyes = tvdp
        .search(&Query::Spatial(SpatialQuery::Covering(
            fire_origin.destination(45.0, 300.0),
        )))
        .expect("valid query");
    println!("frames with eyes on the hotspot          : {}", eyes.len());

    println!(
        "\nplatform holds {} frames ready for damage-evaluation learning",
        tvdp.stats().images
    );
}
