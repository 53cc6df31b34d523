//! Extension experiment E13: test the paper's §7 prediction that the
//! bulletin board behaves like the auction site — the dynamic-content
//! generator is the bottleneck, so the configuration ordering matches
//! Figure 11's.

use dynamid_bboard::{build_db, BboardScale, BulletinBoard, INTERACTIONS};
use dynamid_core::{Middleware, SessionData, StandardConfig};
use dynamid_sim::engine::NullDriver;
use dynamid_sim::{SimDuration, SimRng, SimTime, Simulation};
use dynamid_workload::{ExperimentSpec, WorkloadConfig};

#[test]
fn every_interaction_in_every_config() {
    let scale = BboardScale::small();
    let app = BulletinBoard::new(scale);
    for config in StandardConfig::ALL {
        let mut db = build_db(&scale, 4).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(8);
        for (id, spec) in INTERACTIONS.iter().enumerate() {
            for _ in 0..2 {
                let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
                assert!(prep.is_ok(), "{config} {}: {:?}", spec.name, prep.error);
                assert!(prep.trace.check_balanced().is_ok(), "{config} {}", spec.name);
                assert!(prep.stats.queries > 0, "{config} {}", spec.name);
                sim.submit(prep.trace, id as u64);
            }
        }
        sim.run(SimTime::from_micros(600_000_000), &mut NullDriver).unwrap();
        assert_eq!(sim.stats().completed, INTERACTIONS.len() as u64 * 2, "{config}");
    }
}

#[test]
fn writes_change_the_database() {
    let scale = BboardScale::small();
    let app = BulletinBoard::new(scale);
    let mut db = build_db(&scale, 4).unwrap();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let mw = Middleware::install(&mut sim, StandardConfig::EjbFourTier, &db, &app);
    let stories0 = db.table("stories").unwrap().row_count();
    let comments0 = db.table("comments").unwrap().row_count();
    let mut session = SessionData::new(0);
    let mut rng = SimRng::new(6);
    // StoreStory, then StoreComment on that story, then moderate it.
    for id in [8usize, 10, 11] {
        let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
        assert!(prep.is_ok(), "{:?}", prep.error);
    }
    assert_eq!(db.table("stories").unwrap().row_count(), stories0 + 1);
    assert_eq!(db.table("comments").unwrap().row_count(), comments0 + 1);
    let sid = session.int("story_id").unwrap();
    let n = db
        .execute("SELECT nb_comments FROM stories WHERE id = ?", &[dynamid_sqldb::Value::Int(sid)])
        .unwrap();
    assert_eq!(n.rows[0][0], dynamid_sqldb::Value::Int(1));
}

/// The paper's prediction: front-end-bound, auction-like ordering.
#[test]
fn bulletin_board_behaves_like_the_auction_site() {
    let scale = BboardScale::scaled(0.01);
    let app = BulletinBoard::new(scale);
    let mix = dynamid_bboard::mixes::submission();
    let load = WorkloadConfig {
        clients: 220,
        think_time: SimDuration::from_millis(400),
        session_time: SimDuration::from_secs(60),
        ramp_up: SimDuration::from_secs(4),
        measure: SimDuration::from_secs(15),
        ramp_down: SimDuration::from_secs(1),
        seed: 3,
        resilience: Default::default(),
        arrivals: dynamid_workload::ArrivalProcess::Closed,
        timeline_bucket: None,
    };
    let run = |config: StandardConfig| {
        let mut db = build_db(&scale, 2).unwrap();
        ExperimentSpec::for_config(config).mix(&mix).workload(load.clone()).run(&mut db, &app)
    };
    let php = run(StandardConfig::PhpColocated);
    let colocated = run(StandardConfig::ServletColocated);
    let dedicated = run(StandardConfig::ServletDedicated);
    let ejb = run(StandardConfig::EjbFourTier);

    // Front end saturated, database idle-ish — as for the auction site.
    assert!(php.cpu_of("web").unwrap() > 0.9, "{:?}", php.resources);
    assert!(php.cpu_of("db").unwrap() < 0.7, "{:?}", php.resources);
    // Auction-like ordering: PHP > co-located, dedicated > co-located,
    // EJB last.
    assert!(php.throughput_ipm > colocated.throughput_ipm * 1.05);
    assert!(dedicated.throughput_ipm > colocated.throughput_ipm * 1.1);
    assert!(ejb.throughput_ipm < colocated.throughput_ipm);
    // EJB saturates its own machine.
    assert!(ejb.cpu_of("ejb").unwrap() > 0.9);
}
