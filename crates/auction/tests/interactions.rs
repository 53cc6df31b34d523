//! Integration tests: every auction interaction runs under every
//! deployment configuration with balanced traces and real database effect.

use dynamid_auction::{build_db, Auction, AuctionScale, INTERACTIONS};
use dynamid_core::{Middleware, SessionData, StandardConfig};
use dynamid_sim::engine::NullDriver;
use dynamid_sim::{SimDuration, SimRng, SimTime, Simulation};

#[test]
fn every_interaction_in_every_config() {
    let scale = AuctionScale::small();
    let app = Auction::new(scale);
    for config in StandardConfig::ALL {
        let mut db = build_db(&scale, 41).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(7);
        for (id, spec) in INTERACTIONS.iter().enumerate() {
            for round in 0..2 {
                let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
                assert!(prep.is_ok(), "{config} {} round {round}: {:?}", spec.name, prep.error);
                assert!(
                    prep.trace.check_balanced().is_ok(),
                    "{config} {}: unbalanced trace",
                    spec.name
                );
                assert!(prep.stats.queries > 0, "{config} {}: no DB access", spec.name);
                sim.submit(prep.trace, id as u64);
            }
        }
        sim.run(SimTime::from_micros(600_000_000), &mut NullDriver).unwrap();
        assert_eq!(
            sim.stats().completed,
            INTERACTIONS.len() as u64 * 2,
            "{config}: traces did not drain"
        );
    }
}

#[test]
fn store_bid_updates_denormalized_summary() {
    let scale = AuctionScale::small();
    let app = Auction::new(scale);
    for config in [
        StandardConfig::PhpColocated,
        StandardConfig::ServletDedicatedSync,
        StandardConfig::EjbFourTier,
    ] {
        let mut db = build_db(&scale, 5).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app);
        let bids_before = db.table("bids").unwrap().row_count();
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(13);
        // ViewItem (fixes item_id in session) then StoreBid.
        for id in [9usize, 17] {
            let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
            assert!(prep.is_ok(), "{config}: {:?}", prep.error);
        }
        assert_eq!(
            db.table("bids").unwrap().row_count(),
            bids_before + 1,
            "{config}: bid row missing"
        );
        let item = session.int("item_id").unwrap();
        let r = db
            .execute(
                "SELECT nb_of_bids, max_bid FROM items WHERE id = ?",
                &[dynamid_sqldb::Value::Int(item)],
            )
            .unwrap();
        assert!(r.rows[0][0].as_int().unwrap() >= 1, "{config}");
        assert!(r.rows[0][1].as_float().unwrap() > 0.0, "{config}");
    }
}

#[test]
fn register_user_and_item_grow_tables() {
    let scale = AuctionScale::small();
    let app = Auction::new(scale);
    let mut db = build_db(&scale, 6).unwrap();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let mw = Middleware::install(&mut sim, StandardConfig::ServletColocated, &db, &app);
    let users0 = db.table("users").unwrap().row_count();
    let items0 = db.table("items").unwrap().row_count();
    let mut session = SessionData::new(3);
    let mut rng = SimRng::new(77);
    for id in [2usize, 24] {
        let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
        assert!(prep.is_ok(), "{:?}", prep.error);
    }
    assert_eq!(db.table("users").unwrap().row_count(), users0 + 1);
    assert_eq!(db.table("items").unwrap().row_count(), items0 + 1);
    // The ids bookkeeping rows were bumped.
    let r = db.execute("SELECT value FROM ids WHERE table_name = 'items'", &[]).unwrap();
    assert_eq!(r.rows[0][0].as_int().unwrap(), scale.live_items as i64 + 1);
}

#[test]
fn ejb_issues_many_more_queries_than_sql() {
    let scale = AuctionScale::small();
    let app = Auction::new(scale);
    let count = |config: StandardConfig| -> u64 {
        let mut db = build_db(&scale, 9).unwrap();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &app);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(3);
        let mut total = 0;
        for id in 0..INTERACTIONS.len() {
            let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
            assert!(prep.is_ok(), "{config} i{id}: {:?}", prep.error);
            total += prep.stats.queries;
        }
        total
    };
    let sql = count(StandardConfig::PhpColocated);
    let ejb = count(StandardConfig::EjbFourTier);
    assert!(ejb > sql * 3, "CMP must flood the DB with short statements: sql={sql} ejb={ejb}");
}

#[test]
fn comment_changes_target_rating() {
    let scale = AuctionScale::small();
    let app = Auction::new(scale);
    let mut db = build_db(&scale, 31).unwrap();
    let mut sim = Simulation::new(SimDuration::from_micros(100));
    let mw = Middleware::install(&mut sim, StandardConfig::PhpColocated, &db, &app);
    let before = db.table("comments").unwrap().row_count();
    let mut session = SessionData::new(0);
    let mut rng = SimRng::new(55);
    for id in [19usize, 20] {
        let prep = mw.run_interaction(&mut db, &app, id, &mut session, &mut rng, false);
        assert!(prep.is_ok(), "{:?}", prep.error);
    }
    assert_eq!(db.table("comments").unwrap().row_count(), before + 1);
}
