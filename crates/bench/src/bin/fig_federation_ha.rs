//! Federation HA: quorum promotion vs failover-only recovery.
//!
//! The same federated round-robin write runs three times against the same
//! seeded mid-write crash of one shard's primary: fault-free, with
//! failover-only recovery (the replica serves detoured ops until the
//! primary restarts), and under membership governance. In the promotion
//! arm the crashed primary's lease expires, the shard's replica is
//! elevated to primary by quorum vote at a bumped epoch, and the restarted
//! old primary comes back hard-fenced, is certified in as the replica, and
//! receives the divergent suffix through the reverse replication stream.
//! The replica also fronts a server block cache, so mid-outage reads are
//! warm. Promotion must retain strictly more goodput than failover-only —
//! once the replica *is* the primary, writes stop detouring — with zero
//! acked-byte loss on any seat. Each arm is one plain-engine run of
//! `mc::FederationScenario`, the drill the model checker explores; the
//! `--quick` promotion arm is itself explored by an `mc` unit test.
//! Entirely in virtual time and seeded, so the output is bit-identical
//! across invocations — CI diffs `--quick` against
//! `results/fig_federation_ha_quick.txt`.

use semplar_bench::table::mbps;
use semplar_bench::{flags, print_fault_ledger, shipped, Table};
use semplar_mc::{FederationScenario, RunObservation};
use semplar_runtime::{Dur, Time};
use semplar_srb::MembershipCfg;

fn intact(checked: bool) -> &'static str {
    if checked {
        "bytes intact"
    } else {
        "not observed"
    }
}

fn main() {
    let [quick] = flags(["--quick"]);
    let (files, bytes_per_file, chunk, crash_at, down_for) = if quick {
        (2usize, 6u64 << 20, 1u64 << 20, 800u64, 1_500u64)
    } else {
        (3usize, 16u64 << 20, 2u64 << 20, 2_500u64, 3_000u64)
    };
    let (crash_at, down_for) = (Dur::from_millis(crash_at), Dur::from_millis(down_for));
    let crash = Some((crash_at, down_for));
    let membership = MembershipCfg {
        heartbeat_every: Dur::from_millis(50),
        lease_timeout: Dur::from_millis(200),
    };
    let run = FederationScenario {
        files,
        bytes_per_file,
        chunk,
        crash: None,
        ..FederationScenario::quick(23)
    };
    let clean = run.observe(None).expect("fault-free arm");
    let failover = FederationScenario {
        crash,
        ..run.clone()
    }
    .observe(None)
    .expect("failover-only arm");
    let promo = FederationScenario {
        crash,
        membership: Some(membership),
        ..run.clone()
    }
    .observe(None)
    .expect("promotion arm");
    let goodput =
        |arm: &RunObservation| (files as u64 * bytes_per_file) as f64 * 8.0 / arm.secs / 1e6;
    // Zero acked-byte loss across every arm: all four checksum vectors are
    // bit-identical to the fault-free run.
    let converged = [&failover, &promo].iter().all(|arm| {
        arm.primary_sums == clean.primary_sums && arm.replica_sums == clean.primary_sums
    });

    let mut t = Table::new(
        &format!(
            "Federation HA ({} shards x primary+replica, 50 Mb/s client paths): \
             {files} x {} MiB files, owner of file 0 crashed at t={:.1}s for {:.1}s, \
             heartbeat {}ms / lease {}ms, seed {}",
            run.shards,
            bytes_per_file >> 20,
            crash_at.as_secs_f64(),
            down_for.as_secs_f64(),
            membership.heartbeat_every.as_millis(),
            membership.lease_timeout.as_millis(),
            run.seed
        ),
        &["metric", "value"],
    );
    for (name, arm) in [
        ("fault-free", &clean),
        ("failover-only", &failover),
        ("promotion", &promo),
    ] {
        t.row(vec![format!("{name} write"), mbps(goodput(arm))]);
        t.row(vec![format!("{name} time"), format!("{:.3} s", arm.secs)]);
    }
    for (name, arm) in [("failover-only", &failover), ("promotion", &promo)] {
        t.row(vec![
            format!("goodput retained ({name})"),
            format!("{:.1} %", 100.0 * goodput(arm) / goodput(&clean).max(1e-9)),
        ]);
    }
    t.row(vec![
        "detoured ops (failover / promotion)".into(),
        format!("{} / {}", failover.failovers, promo.failovers),
    ]);
    t.row(vec![
        "divergence high-water (failover / promotion)".into(),
        format!(
            "{} / {} extents",
            failover.div_high_water, promo.div_high_water
        ),
    ]);
    for tr in &promo.promotions.entries {
        t.row(vec![
            format!(
                "[{:.3} s] shard {} {:?}",
                (tr.at - Time::ZERO).as_secs_f64(),
                tr.shard,
                tr.kind
            ),
            format!(
                "epoch {} seat {} ({} echoes, {} readies)",
                tr.epoch, tr.primary, tr.echoes, tr.readies
            ),
        ]);
    }
    let joined = |v: Vec<String>| v.join(" / ");
    t.row(vec![
        "final epochs".into(),
        joined(promo.epochs.iter().map(|e| e.to_string()).collect()),
    ]);
    t.row(vec![
        "final primary seats".into(),
        joined(promo.primaries.iter().map(|p| p.to_string()).collect()),
    ]);
    t.row(vec![
        "fenced writes rejected (old primary)".into(),
        promo.fenced_rejects.to_string(),
    ]);
    t.row(vec![
        "replica block cache (crashed shard)".into(),
        format!(
            "{} hits / {} misses",
            promo.replica_cache.hits, promo.replica_cache.misses
        ),
    ]);
    for (s, (fwd, rev)) in promo.repl.iter().enumerate() {
        t.row(vec![format!("shard {s} forward repl"), shipped(fwd)]);
        t.row(vec![
            format!("shard {s} reverse repl"),
            shipped(rev.as_ref().expect("governed arm has reverse replicators")),
        ]);
    }
    t.row(vec![
        "mid-outage reads (failover / promotion)".into(),
        format!(
            "{} / {}",
            intact(failover.outage_read_checked),
            intact(promo.outage_read_checked)
        ),
    ]);
    t.row(vec![
        "checksums (all arms vs fault-free)".into(),
        if converged {
            "bit-identical on every seat".into()
        } else {
            "DIVERGED".to_string()
        },
    ]);
    for (i, sum) in promo.primary_sums.iter().enumerate() {
        t.row(vec![format!("file {i} adler32"), format!("{sum:08x}")]);
    }
    t.print();

    print_fault_ledger("fault ledger (virtual time)", &promo.faults[0]);
    assert!(converged, "acked bytes lost: checksums diverged");
    assert!(
        promo.promotions.promotions().count() >= 1,
        "lease expiry never promoted the replica"
    );
    assert!(
        promo.secs < failover.secs,
        "promotion arm did not beat failover-only: {:.3} vs {:.3} s",
        promo.secs,
        failover.secs
    );
}
