//! Building your own benchmark application against the middleware stack.
//!
//! The paper's two applications (bookstore, auction) are not special: any
//! type implementing [`Application`] can be deployed on all six
//! configurations. This example defines a tiny two-interaction guestbook —
//! implemented in both the explicit-SQL and the entity-bean styles — and
//! runs it end to end, printing the generated HTML of one request.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use dynamid::core::{
    AppLockSpec, AppResult, Application, InteractionSpec, LogicStyle, Middleware, RequestCtx,
    SessionData, StandardConfig,
};
use dynamid::sim::{SimDuration, SimRng, Simulation};
use dynamid::sqldb::{ColumnType, Database, TableSchema, Value};

/// Interactions: 0 = view the guestbook, 1 = sign it.
struct Guestbook;

impl Application for Guestbook {
    fn name(&self) -> &str {
        "guestbook"
    }

    fn interactions(&self) -> &[InteractionSpec] {
        &[
            InteractionSpec { name: "View", read_only: true, secure: false },
            InteractionSpec { name: "Sign", read_only: false, secure: false },
        ]
    }

    fn app_locks(&self) -> Vec<AppLockSpec> {
        vec![AppLockSpec::new("book", 4)]
    }

    fn handle(
        &self,
        id: usize,
        ctx: &mut RequestCtx<'_>,
        session: &mut SessionData,
        rng: &mut SimRng,
    ) -> AppResult<()> {
        ctx.emit("<html><body><h1>Guestbook</h1>");
        match (id, ctx.style()) {
            // --- View ---------------------------------------------------
            (0, LogicStyle::ExplicitSql { .. }) => {
                let r = ctx
                    .query("SELECT author, message FROM entries ORDER BY id DESC LIMIT 10", &[])?;
                for row in &r.rows {
                    ctx.emit(&format!("<p><b>{}</b>: {}</p>", row[0], row[1]));
                }
            }
            (0, LogicStyle::EntityBean) => {
                let entries = ctx.facade("GuestbookSession.recent", |em| {
                    let pks =
                        em.find_pks_query_tail("entries", "ORDER BY id DESC LIMIT 10", &[])?;
                    let mut out = Vec::new();
                    for pk in pks {
                        if let Some(h) = em.find("entries", pk)? {
                            out.push((em.get(h, "author")?, em.get(h, "message")?));
                        }
                    }
                    Ok(out)
                })?;
                for (author, message) in entries {
                    ctx.emit(&format!("<p><b>{author}</b>: {message}</p>"));
                }
            }
            // --- Sign ---------------------------------------------------
            (1, style) => {
                let author = format!("client{}", session.client());
                let message = format!("hello #{}", rng.uniform_u64(0, 999));
                match style {
                    LogicStyle::ExplicitSql { sync } => {
                        if sync {
                            ctx.app_lock("book", session.client());
                        }
                        ctx.query(
                            "INSERT INTO entries (id, author, message) VALUES (NULL, ?, ?)",
                            &[Value::str(&author), Value::str(&message)],
                        )?;
                        if sync {
                            ctx.app_unlock("book", session.client());
                        }
                    }
                    LogicStyle::EntityBean => {
                        ctx.facade("GuestbookSession.sign", |em| {
                            em.create(
                                "entries",
                                &[
                                    ("id", Value::Null),
                                    ("author", Value::str(&author)),
                                    ("message", Value::str(&message)),
                                ],
                            )?;
                            Ok(())
                        })?;
                    }
                }
                ctx.emit("<p>Thanks for signing!</p>");
            }
            _ => unreachable!("two interactions only"),
        }
        ctx.emit("</body></html>");
        Ok(())
    }
}

fn guestbook_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::builder("entries")
            .column("id", ColumnType::Int)
            .column("author", ColumnType::Str)
            .column("message", ColumnType::Str)
            .primary_key("id")
            .auto_increment()
            .build()
            .expect("valid schema"),
    )
    .expect("fresh database");
    db
}

fn main() {
    for config in [StandardConfig::PhpColocated, StandardConfig::EjbFourTier] {
        println!("=== {} ===", config.paper_name());
        let mut db = guestbook_db();
        let mut sim = Simulation::new(SimDuration::from_micros(100));
        let mw = Middleware::install(&mut sim, config, &db, &Guestbook);
        let mut session = SessionData::new(0);
        let mut rng = SimRng::new(1);
        // Sign twice, then view, capturing the HTML of the view.
        for _ in 0..2 {
            let prep = mw.run_interaction(&mut db, &Guestbook, 1, &mut session, &mut rng, false);
            assert!(prep.is_ok(), "{:?}", prep.error);
        }
        let prep = mw.run_interaction(&mut db, &Guestbook, 0, &mut session, &mut rng, true);
        assert!(prep.is_ok(), "{:?}", prep.error);
        println!("{}", prep.html.expect("captured"));
        println!(
            "(queries: {}, db time: {:.1} ms, trace ops: {})\n",
            prep.stats.queries,
            prep.stats.db_micros as f64 / 1000.0,
            prep.trace.len(),
        );
    }
}
