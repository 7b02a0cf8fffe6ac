//! End-to-end absorption contrast: the same overwrite-heavy fio workload on
//! the durable-cache deployment (DuraSSD, nobarrier) and the volatile
//! baseline (SSD-A, barriers + fsync-per-write). The paper's claim, stated
//! as assertions: the durable cache absorbs overwrites in DRAM, the
//! volatile cache — forced to drain on every fsync — absorbs none, and the
//! per-cause attribution conserves at both boundaries either way.

use bench::{durassd_bench, ssd_a_bench};
use durassd::Ssd;
use storage::device::WriteCause;
use storage::volume::Volume;
use workloads::fio;
use workloads::fio::FioSpec;

const OPS: u64 = 8_000;
const SPAN: u64 = 512;

fn run_fio(dev: Ssd, barriers: bool) -> Volume<Ssd> {
    let mut vol = Volume::new(dev, barriers);
    let spec = FioSpec::random_write_4k(SPAN, Some(1), OPS);
    fio::run(&mut vol, &spec, 0);
    vol
}

#[test]
fn durable_cache_absorbs_overwrites_volatile_does_not() {
    let durable = run_fio(durassd_bench(true), false);
    let volatile = run_fio(ssd_a_bench(true), true);

    let absorbed_durable = durable.device().absorbed_overwrites();
    let absorbed_volatile = volatile.device().absorbed_overwrites();
    assert!(
        absorbed_durable > 0,
        "durable nobarrier deployment must coalesce at least one overwrite"
    );
    assert_eq!(
        absorbed_volatile, 0,
        "an fsync per write drains the volatile cache before any overwrite can coalesce"
    );

    // The flush tax shows up as write amplification: the volatile device
    // pays for every fsync with mapping journals and forced drains.
    let ds = durable.device_stats();
    let vs = volatile.device_stats();
    assert_eq!(ds.pages_written, vs.pages_written, "same host workload on both devices");
    assert!(
        vs.media_pages_written > ds.media_pages_written,
        "barriers must cost media writes: volatile {} vs durable {}",
        vs.media_pages_written,
        ds.media_pages_written
    );
}

#[test]
fn fio_attribution_conserves_and_stays_host_tagged() {
    let vol = run_fio(durassd_bench(true), false);
    vol.device().check_invariants().expect("device invariants after workload");

    let s = vol.device_stats();
    let host_sum: u64 = s.pages_by_cause.iter().sum();
    let media_sum: u64 = s.media_pages_by_cause.iter().sum();
    assert_eq!(host_sum, s.pages_written);
    assert_eq!(media_sum, s.media_pages_written);
    // fio writes straight to the volume: every host page is HostData, and
    // the only other media traffic a clean run may add is device-internal.
    assert_eq!(s.pages_by_cause[WriteCause::HostData.index()], s.pages_written);
    for c in [WriteCause::WalAppend, WriteCause::PageImage, WriteCause::DocRewrite] {
        assert_eq!(s.media_pages_by_cause[c.index()], 0, "{} cannot appear in raw fio", c.label());
    }
}
