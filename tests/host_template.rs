//! The shard host template (DESIGN.md §2.16): every user a fleet shard
//! provisions gets a clone of one seeded database, with the secondary
//! and full-text indexes shared copy-on-write. These tests pin, for all
//! eight Table 1 applications, that
//!
//! - a template-provisioned host is indistinguishable from a freshly
//!   installed one, down to the responses of the first session;
//! - a write in one clone — insert, update of an indexed or full-text
//!   column, delete, crash and recovery — reaches neither its siblings
//!   nor the template;
//! - one scratch reused across applications serves each its own
//!   catalogue.

use mcommerce::core::apps::for_category;
use mcommerce::core::workload::run_session;
use mcommerce::core::{Category, McSystem, Scenario, ShardScratch};
use mcommerce::hostsite::db::{Database, JournalEntry, Value};
use mcommerce::simnet::rng::sub_seed;

/// Everything a reader of the database can observe, rendered to text:
/// the journal, every table's rows, every secondary-index lookup over
/// the values present, and full-text searches for every indexed word.
fn observe(db: &Database) -> String {
    let mut out = format!("journal {:?}\n", db.journal());
    for table in db.table_names() {
        let rows = db.select(&table, |_| true).unwrap();
        out += &format!("{table} rows {rows:?}\n");
    }
    for entry in db.journal() {
        let JournalEntry::CreateTable {
            name,
            columns,
            indexes,
        } = entry
        else {
            continue;
        };
        for column in indexes {
            let ci = columns.iter().position(|c| c == column).unwrap();
            for row in db.select(name, |_| true).unwrap() {
                let hits = db.select_eq(name, column, &row[ci]).unwrap();
                out += &format!("{name}.{column} = {} -> {hits:?}\n", row[ci]);
            }
        }
    }
    for (table, column) in db.fts_registrations() {
        let ci = db
            .journal()
            .iter()
            .find_map(|e| match e {
                JournalEntry::CreateTable { name, columns, .. } if *name == table => {
                    columns.iter().position(|c| *c == column)
                }
                _ => None,
            })
            .unwrap();
        let mut queries = vec!["probe".to_owned()];
        for row in db.select(&table, |_| true).unwrap() {
            queries.extend(row[ci].to_string().split_whitespace().map(str::to_owned));
        }
        for q in queries {
            out += &format!(
                "search {table} {q:?} -> {:?}\n",
                db.search(&table, &q).unwrap()
            );
        }
    }
    out
}

/// The catalogue a fresh `seed` produces for `app`.
fn fresh(app: Category) -> Database {
    let mut db = Database::new();
    for_category(app).seed(&mut db);
    db
}

fn scenario(app: Category) -> Scenario {
    Scenario::new("template").app(app).users(4).seed(11)
}

/// Runs `user`'s first session on `system`.
fn first_session(scenario: &Scenario, system: &mut McSystem, user: u64) -> Vec<String> {
    let steps =
        for_category(scenario.app).session(sub_seed(scenario.seed, "fleet.session", user), 0);
    run_session(system, &steps)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect()
}

/// Insert, update every indexed and full-text column, delete, then crash
/// and recover: every kind of write a clone can see.
fn scribble(system: &mut McSystem) {
    let db = system.host.web.db_mut();
    for entry in db.journal().to_vec() {
        let JournalEntry::CreateTable { name, .. } = entry else {
            continue;
        };
        let rows = db.select(&name, |_| true).unwrap();
        let Some(first) = rows.first() else {
            continue;
        };
        let mut copy = first.to_vec();
        copy[0] = match &copy[0] {
            Value::Int(i) => Value::Int(i + 1_000_000),
            other => Value::Text(format!("{other}-probe")),
        };
        db.insert(&name, copy).unwrap();
        let mut edited = first.to_vec();
        for value in edited.iter_mut().skip(1) {
            *value = Value::Text("cow probe".into());
        }
        db.update(&name, edited).unwrap();
        if let Some(last) = rows.last().filter(|_| rows.len() > 1) {
            db.delete(&name, &last[0]).unwrap();
        }
    }
    system.host.web.crash_and_recover_db().unwrap();
}

#[test]
fn template_hosts_equal_freshly_installed_ones_for_every_app() {
    for app in Category::ALL {
        let scenario = scenario(app);
        let scratch = ShardScratch::new();
        // User 0 seeds the template and writes to its own clone.
        let mut first = scenario.system_for_user_in(0, &scratch);
        first_session(&scenario, &mut first, 0);

        let mut templated = scenario.system_for_user_in(1, &scratch);
        let mut installed = scenario.system_for_user(1);
        assert_eq!(
            observe(templated.host.web.db()),
            observe(installed.host.web.db()),
            "{app}: template clone differs from a fresh install"
        );
        assert_eq!(
            first_session(&scenario, &mut templated, 1),
            first_session(&scenario, &mut installed, 1),
            "{app}: first session answers differently on a template host"
        );
        assert_eq!(
            observe(templated.host.web.db()),
            observe(installed.host.web.db()),
            "{app}: the first session left different databases"
        );
    }
}

#[test]
fn writes_to_one_clone_reach_neither_siblings_nor_the_template() {
    for app in Category::ALL {
        let scenario = scenario(app);
        let scratch = ShardScratch::new();
        let pristine = observe(&fresh(app));
        let mut writer = scenario.system_for_user_in(0, &scratch);
        let sibling = scenario.system_for_user_in(1, &scratch);
        scribble(&mut writer);
        assert_ne!(
            observe(writer.host.web.db()),
            pristine,
            "{app}: the writes did not land"
        );
        assert_eq!(
            observe(sibling.host.web.db()),
            pristine,
            "{app}: a sibling clone saw another clone's writes"
        );
        let later = scenario.system_for_user_in(2, &scratch);
        assert_eq!(
            observe(later.host.web.db()),
            pristine,
            "{app}: the template saw a clone's writes"
        );
    }
}

#[test]
fn one_scratch_serves_each_app_its_own_catalogue() {
    let scratch = ShardScratch::new();
    for app in Category::ALL
        .into_iter()
        .chain(Category::ALL.into_iter().rev())
    {
        let system = scenario(app).system_for_user_in(0, &scratch);
        assert_eq!(
            observe(system.host.web.db()),
            observe(&fresh(app)),
            "{app}: a shared scratch served the wrong catalogue"
        );
    }
}
