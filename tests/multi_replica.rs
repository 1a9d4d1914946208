//! Several replicas of one master: ReSync sessions are independent, so
//! differently-scoped replicas (e.g. two geographies plus a department
//! replica) converge side by side and each pays only for its own content.

use fbdr::dit::{Modification, UpdateOp};
use fbdr::prelude::*;
use fbdr::resync::SyncDriver;

fn person(cn: &str, c: &str, serial: &str, dept: &str) -> Entry {
    Entry::new(format!("cn={cn},c={c},o=xyz").parse().expect("valid dn"))
        .with("objectclass", "inetOrgPerson")
        .with("cn", cn)
        .with("serialNumber", serial)
        .with("departmentNumber", dept)
}

fn master() -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("add");
    for c in ["us", "in"] {
        m.dit_mut()
            .add(Entry::new(format!("c={c},o=xyz").parse().expect("dn")))
            .expect("add");
    }
    for i in 0..30 {
        let c = if i % 3 == 0 { "in" } else { "us" };
        m.dit_mut()
            .add(person(
                &format!("p{i:02}"),
                c,
                &format!("{:06}", 100_000 + i),
                &format!("{}", 2400 + i % 4),
            ))
            .expect("add");
    }
    m
}

fn root_q(f: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(f).expect("valid filter"))
}

#[test]
fn independent_replicas_converge_independently() {
    let mut m = master();

    // Replica A: a serial region. Replica B: one department.
    let a = FilterReplica::new(0);
    let b = FilterReplica::new(0);
    a.install_filter(&mut m, root_q("(serialNumber=10000*)")).expect("install");
    b.install_filter(&mut m, root_q("(departmentNumber=2401)")).expect("install");
    assert_eq!(m.session_count(), 2);
    let a0 = a.entry_count();
    let b0 = b.entry_count();
    assert!(a0 > 0 && b0 > 0);

    // p05 (dept 2401, serial 100005) gets a mail change: an in-content
    // modify for A's serial region *and* for B's department filter.
    m.apply(UpdateOp::Modify {
        dn: "cn=p05,c=us,o=xyz".parse().expect("dn"),
        mods: vec![Modification::Replace("mail".into(), vec!["p05@x".into()])],
    })
    .expect("apply");
    // p14 (serial 100014, outside A's 10000* region) moves into
    // department 2401: an add for B, invisible to A.
    m.apply(UpdateOp::Modify {
        dn: "cn=p14,c=us,o=xyz".parse().expect("dn"),
        mods: vec![Modification::Replace("departmentNumber".into(), vec!["2401".into()])],
    })
    .expect("apply");

    let ta = a.sync_with(&mut m, &mut SyncDriver::default()).expect("sync a");
    let tb = b.sync_with(&mut m, &mut SyncDriver::default()).expect("sync b");
    assert_eq!(ta.full_entries, 1); // p05 modified
    assert_eq!(tb.full_entries, 2); // p05 modified, p14 arrived
    assert_eq!(tb.dn_only, 0);

    // Each replica answers its own scope, correctly, after sync.
    let hit = a.try_answer(&root_q("(serialNumber=100005)")).expect("a hit");
    assert!(hit[0].has_value(&"mail".into(), &"p05@x".into()));
    let hit = b.try_answer(&root_q("(departmentNumber=2401)")).expect("b hit");
    assert_eq!(hit.len(), b0 + 1);
    // And neither answers the other's queries.
    assert!(b.try_answer(&root_q("(serialNumber=100005)")).is_none());
}

#[test]
fn removing_one_replica_leaves_others_untouched() {
    let mut m = master();
    let a = FilterReplica::new(0);
    let b = FilterReplica::new(0);
    let qa = root_q("(serialNumber=10000*)");
    a.install_filter(&mut m, qa.clone()).expect("install");
    b.install_filter(&mut m, root_q("(departmentNumber=2400)")).expect("install");
    assert_eq!(m.session_count(), 2);

    a.remove_filter(&mut m, &qa);
    assert_eq!(m.session_count(), 1);

    m.apply(UpdateOp::Add(person("new", "us", "100099", "2400"))).expect("apply");
    let tb = b.sync_with(&mut m, &mut SyncDriver::default()).expect("sync b");
    assert_eq!(tb.full_entries, 1);
    assert!(b.try_answer(&root_q("(departmentNumber=2400)")).is_some());
}

#[test]
fn mixed_poll_and_persist_replicas() {
    let mut m = master();
    let polling = FilterReplica::new(0);
    let persistent = FilterReplica::new(0);
    polling.install_filter(&mut m, root_q("(departmentNumber=2402)")).expect("install");
    persistent
        .install_filter_persistent(&mut m, root_q("(departmentNumber=2402)"))
        .expect("install");

    m.apply(UpdateOp::Add(person("x", "in", "100090", "2402"))).expect("apply");

    // The persistent replica already has the change queued; the polling
    // one needs a poll.
    let t = persistent.drain_notifications();
    assert_eq!(t.full_entries, 1);
    let before = polling.try_answer(&root_q("(departmentNumber=2402)")).expect("hit").len();
    let after = persistent.try_answer(&root_q("(departmentNumber=2402)")).expect("hit").len();
    assert_eq!(after, before + 1);
    polling.sync_with(&mut m, &mut SyncDriver::default()).expect("sync");
    let now = polling.try_answer(&root_q("(departmentNumber=2402)")).expect("hit").len();
    assert_eq!(now, after);
}
