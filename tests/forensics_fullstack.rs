//! Full-stack durability-ledger forensics: the paper's §3.4/§5.2 claims as
//! *per-write* assertions, not aggregate counts.
//!
//! A shadow [`forensics::Ledger`] rides along with the workload; after a
//! power cut and recovery the reconciler classifies every attempted unit
//! and attributes losses to the layer that dropped them. DuraSSD must show
//! zero acked-lost units at every cut point; a volatile cache without
//! barriers must show losses attributed to its discarded dirty slots.

use bench::schema::check_forensics_report;
use durassd::{Ssd, SsdConfig};
use forensics::{
    reconcile, AckContract, CampaignReport, Classification, CutReport, Forensic, Ledger, LossLayer,
    Probe, ProbeResult, UnitKind,
};
use relstore::{Engine, EngineConfig};
use storage::device::{BlockDevice, LOGICAL_PAGE};

fn engine_cfg(safe: bool) -> EngineConfig {
    EngineConfig {
        buffer_pool_bytes: 64 * 4096,
        double_write: safe,
        barriers: safe,
        data_pages: 8192,
        log_files: 2,
        log_file_blocks: 1024,
        dwb_pages: 64,
        ..EngineConfig::mysql_like(4096)
    }
}

fn key_of(i: u64) -> Vec<u8> {
    format!("k{i:04}").into_bytes()
}

fn val_of(i: u64) -> Vec<u8> {
    format!("v{i}-{}", "y".repeat(40)).into_bytes()
}

/// Run the engine to `cut_op`, cut power, recover, reconcile.
fn engine_cut_trial(
    data: Ssd,
    log: Ssd,
    contract: AckContract,
    safe: bool,
    cut_op: u64,
    commit_last: bool,
) -> CutReport {
    let ledger = Ledger::new(contract);
    let cfg = engine_cfg(safe);
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    e.attach_ledger(ledger.clone());
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..=cut_op {
        now = e.put(tree, &key_of(i), &val_of(i), now);
        if i == cut_op && !commit_last {
            break;
        }
        now = e.commit(now);
    }
    let cut_ns = now + 1;
    let (mut d, mut l) = e.crash(cut_ns);
    let mut pms = Vec::new();
    pms.extend(d.take_postmortem());
    pms.extend(l.take_postmortem());
    let phase = if commit_last { "after-commit" } else { "after-put" };
    match Engine::recover(d, l, cfg, cut_ns + 1) {
        Err(_) => {
            let probes: Vec<Probe> =
                (0..=cut_op).map(|i| Probe::new(&key_of(i), ProbeResult::Missing)).collect();
            reconcile("unrecoverable", cut_op, phase, cut_ns, &ledger, &probes, pms, Vec::new())
        }
        Ok(timed) => {
            let (mut e2, ready) = timed.into_parts();
            let recs: Vec<_> =
                e2.data_volume().device().recovery_snap().cloned().into_iter().collect();
            let mut probes = Vec::new();
            let mut t2 = ready;
            for i in 0..=cut_op {
                let (v, t3) = e2.get(tree, &key_of(i), t2).into_parts();
                t2 = t3;
                let r = match v {
                    Some(bytes) => ProbeResult::Value(Ledger::digest(&bytes)),
                    None => ProbeResult::Missing,
                };
                probes.push(Probe::new(&key_of(i), r));
            }
            reconcile("trial", cut_op, phase, cut_ns, &ledger, &probes, pms, recs)
        }
    }
}

#[test]
fn durassd_zero_acked_lost_at_every_cut_point() {
    // Barriers OFF, double-write OFF — the paper's lean configuration. The
    // durable cache must keep every acknowledged commit at *every* cut
    // point, including a cut between a put and its commit.
    for (cut_op, commit_last) in [(40, false), (40, true), (120, true), (199, false), (199, true)] {
        let r = engine_cut_trial(
            Ssd::new(SsdConfig::durassd(8)),
            Ssd::new(SsdConfig::durassd(8)),
            AckContract::DurableCacheAck,
            false,
            cut_op,
            commit_last,
        );
        assert_eq!(
            r.tally.acked_lost, 0,
            "DuraSSD lost acked units at cut {cut_op}/{commit_last}: {}",
            r.verdict
        );
        assert_eq!(r.tally.torn, 0, "torn at cut {cut_op}: {}", r.verdict);
        assert_eq!(r.tally.stale, 0, "stale at cut {cut_op}: {}", r.verdict);
        assert!(r.durable, "{}", r.verdict);
        // The committed prefix survived.
        assert!(r.tally.survived >= cut_op, "{:?}", r.tally);
        // The cut was observed by the device: a postmortem with a dump
        // outcome inside the capacitor budget.
        let pm = r.postmortems.iter().find(|p| p.device == "ssd").expect("ssd postmortem");
        assert_eq!(pm.protection, "capacitor-backed");
        if let Some(dump) = &pm.dump {
            assert!(dump.within_budget, "dump blew the budget: {dump:?}");
        }
        if !commit_last {
            // The uncommitted tail put is at worst a permitted loss.
            assert!(r.tally.never_acked <= 1, "{:?}", r.tally);
        }
    }
}

#[test]
fn volatile_nobarrier_engine_losses_are_attributed() {
    // A volatile cache with barriers and double-writes off breaks its acks;
    // every loss row must carry a classification and a layer.
    let r = engine_cut_trial(
        Ssd::new(SsdConfig::ssd_a(8)),
        Ssd::new(SsdConfig::ssd_a(8)),
        AckContract::VolatileAck,
        false,
        150,
        true,
    );
    assert!(r.tally.acked_lost > 0, "volatile nobarrier must lose acked units: {:?}", r.tally);
    assert!(!r.durable);
    for loss in &r.losses {
        assert!(loss.layer.is_some(), "loss {} missing attribution", loss.unit);
        assert!(!loss.evidence.is_empty());
    }
    // The acked losses point at the discarded dirty cache slots.
    let acked: Vec<_> =
        r.losses.iter().filter(|l| l.classification == Classification::AckedLost).collect();
    assert!(!acked.is_empty());
    assert!(
        acked.iter().all(|l| l.layer == Some(LossLayer::CacheSlot)),
        "expected cache-slot attribution, got {:?}",
        acked.iter().map(|l| l.layer).collect::<Vec<_>>()
    );
    let pm = r.postmortems.iter().find(|p| p.device == "ssd").expect("ssd postmortem");
    assert_eq!(pm.protection, "volatile");
    assert!(pm.discarded_dirty_slots > 0 || pm.rolled_back_map_entries > 0);
}

#[test]
fn docstore_ledger_round_trip_and_report_validation() {
    use docstore::{DocStore, DocStoreConfig};
    let cfg =
        DocStoreConfig { batch_size: 1, barriers: false, file_blocks: 1024, auto_compact_pct: 0 };
    let ledger = Ledger::new(AckContract::VolatileAck);
    let mut s = DocStore::create(Ssd::new(SsdConfig::tiny_volatile()), cfg);
    s.attach_ledger(ledger.clone());
    let n = 20u64;
    let mut now = 0;
    for i in 0..n {
        now = s.set(&key_of(i), &val_of(i), now);
    }
    let acked = ledger.entries().iter().filter(|e| e.acked_at.is_some()).count();
    assert_eq!(acked as u64, n, "batch_size=1 acks every set");
    let cut_ns = now + 1;
    let mut dev = s.crash(cut_ns);
    let pms: Vec<_> = dev.take_postmortem().into_iter().collect();
    let (mut s2, mut t2) = DocStore::recover(dev, cfg, cut_ns + 1).into_parts();
    let recs: Vec<_> = s2.device().recovery_snap().cloned().into_iter().collect();
    let mut probes = Vec::new();
    for i in 0..n {
        let (v, t3) = s2.get(&key_of(i), t2).into_parts();
        t2 = t3;
        let r = match v {
            Some(bytes) => ProbeResult::Value(Ledger::digest(&bytes)),
            None => ProbeResult::Missing,
        };
        probes.push(Probe::new(&key_of(i), r));
    }
    let row = reconcile(
        "doc volatile nobarrier",
        n - 1,
        "after-set",
        cut_ns,
        &ledger,
        &probes,
        pms,
        recs,
    );
    assert!(
        row.tally.acked_lost > 0,
        "volatile nobarrier docstore must lose sets: {:?}",
        row.tally
    );
    for loss in &row.losses {
        assert_eq!(loss.kind, UnitKind::DocstoreUpdate);
        assert_eq!(loss.layer, Some(LossLayer::CacheSlot), "{}", loss.evidence);
        assert_eq!(loss.contract, Some(AckContract::VolatileAck));
    }
    // The row aggregates into a schema-valid campaign report.
    let report = CampaignReport { seed: 1, keys: n, cuts: 1, rows: vec![row] };
    let fails = check_forensics_report(&report.to_json());
    assert!(fails.is_empty(), "report validates: {fails:?}");
    assert!(report.acked_lost_for("doc volatile") > 0);
}

#[test]
fn over_budget_dump_degrades_to_volatile_without_panicking() {
    // A capacitor too small for its dirty cache used to abort the process;
    // now it must degrade to volatile behaviour and report the outcome.
    let cfg = SsdConfig::tiny_test().to_builder().capacitor_energy_bytes(8 * 1024).build();
    let mut dev = Ssd::new(cfg);
    let page = vec![7u8; LOGICAL_PAGE];
    let mut t = 0;
    for lpn in 0..12u64 {
        t = dev.write(lpn, &page, t).unwrap();
    }
    // 12 dirty pages (~48KB) >> 8KB budget: the dump must fail gracefully.
    dev.power_cut(t + 1_000_000_000);
    let stats = dev.ssd_stats();
    assert_eq!(stats.dump_over_budget, 1, "{stats:?}");
    assert_eq!(stats.dumps, 0, "an over-budget dump is not a successful dump");
    let pm = dev.postmortem().expect("postmortem captured");
    let dump = pm.dump.expect("dump outcome recorded");
    assert!(!dump.within_budget);
    assert!(dump.bytes > dump.budget_bytes, "{dump:?}");
    assert!(pm.discarded_dirty_slots > 0, "degraded to volatile: slots discarded");
    let ready = dev.reboot(t + 2_000_000_000);
    assert!(ready > t);
    let rec = dev.recovery_snap().expect("recovery snapshot");
    assert!(rec.scan_only || !rec.recovered_via_dump, "nothing to restore from a failed dump");
}

#[test]
fn every_layer_counts_its_own_acks() {
    // With barriers ON, a committed workload is acknowledged unit by unit
    // in the ledger, and every layer under the engine counts the acks that
    // stood behind those: WAL flushes, filesystem fsyncs, device writes and
    // FLUSH CACHE completions, checkpoints.
    let ledger = Ledger::new(AckContract::DurableCacheAck);
    let cfg = engine_cfg(true);
    let (data, log) = (Ssd::new(SsdConfig::durassd(8)), Ssd::new(SsdConfig::durassd(8)));
    let (mut e, t0) = Engine::create(data, log, cfg, 0).into_parts();
    e.attach_ledger(ledger.clone());
    let (tree, t1) = e.create_tree(t0).into_parts();
    let mut now = e.checkpoint(t1);
    for i in 0..30u64 {
        now = e.put(tree, &key_of(i), &val_of(i), now);
        now = e.commit(now);
    }
    let entries = ledger.entries();
    assert_eq!(entries.len(), 30);
    assert!(entries.iter().all(|e| e.acked_at.is_some()), "nothing is left pending");
    // Every commit carried the flush-barrier contract (barriers ON).
    for entry in &entries {
        assert_eq!(entry.kind, UnitKind::RelstoreCommit);
        assert_eq!(entry.contract, Some(AckContract::FlushBarrierAck));
    }
    assert!(e.wal_stats().flushes > 0);
    assert!(e.log_volume().fsync_count() > 0);
    let dev = e.log_volume().device_stats();
    assert!(dev.writes > 0 && dev.flushes > 0, "{dev:?}");
    assert!(e.stats().checkpoints > 0);
}
