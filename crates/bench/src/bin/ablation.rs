//! **Ablations** — the design choices DESIGN.md calls out, isolated:
//!
//! 1. Torn-page protection: double-write buffer vs PostgreSQL-style
//!    full-page-writes vs none (device-trusted), on throughput, log volume
//!    and media-write amplification.
//! 2. Write-cache coalescing: how much media traffic duplicate-write
//!    absorption saves under skewed rewrites (the §3.1.1 endurance claim).
//! 3. Backend bandwidth cap: sustained 4KB random-write IOPS vs the cap.
//! 4. Mapping-journal threshold: crash-loss window vs journal write traffic.
//! 5. Capacitor budget: the dump high-water mark vs cache size (§3.1 sizing).
//!
//! Run: `cargo run -p bench --release --bin ablation`

use bench::{durassd_bench, fmt_rate, linkbench_cell, rule, LinkCell, TelemetrySink};
use durassd::{Ssd, SsdConfig};
use storage::device::{BlockDevice, LOGICAL_PAGE};
use storage::volume::Volume;
use telemetry::Telemetry;
use workloads::fio::{run as fio_run, FioSpec};

fn torn_page_protection(sink: &mut TelemetrySink) {
    let tel = Telemetry::new();
    println!("1) Torn-page protection mechanisms (LinkBench, barriers ON, 4KB)\n");
    println!(
        "{:<22} {:>9} {:>12} {:>12} {:>10}",
        "mechanism", "TPS", "log MB", "media MB", "NAND/host"
    );
    rule(70);
    for (label, dwb, fpw) in [
        ("double-write", true, false),
        ("full-page-writes", false, true),
        ("none (DuraSSD)", false, false),
    ] {
        let cell = LinkCell {
            full_page_writes: fpw,
            log_file_blocks: 16_384,
            ..LinkCell::fig5(true, dwb, 4096, 20_000, 8_000)
        };
        let (rep, e) = linkbench_cell(&cell, &tel);
        let log_mb = e.wal_stats().bytes_written as f64 / 1e6;
        let host = e.data_volume().device_stats().pages_written;
        let media = e.data_volume().device_stats().media_pages_written;
        println!(
            "{:<22} {:>9} {:>12.1} {:>12.1} {:>9.2}x",
            label,
            fmt_rate(rep.tps),
            log_mb,
            media as f64 * 4096.0 / 1e6,
            media as f64 / host.max(1) as f64
        );
    }
    println!();
    sink.add("1 torn-page protection", &tel);
}

fn coalescing(sink: &mut TelemetrySink) {
    let tel = Telemetry::new();
    println!("2) Write-cache coalescing under skewed rewrites (128 writers)\n");
    // Concurrent writers keep rewrites resident in the cache long enough to
    // coalesce — only the latest version of a hot page reaches flash.
    use simkit::ClosedLoop;
    let mut ssd = durassd_bench(true);
    ssd.attach_telemetry(tel.clone());
    let page = vec![9u8; LOGICAL_PAGE];
    let mut i = 0u64;
    let mut driver = ClosedLoop::new(128, 0);
    let rep = driver.run(20_000, |_, now| {
        i += 1;
        ssd.write(i % 64, &page, now).unwrap()
    });
    let _ = ssd.flush(rep.finished_at).unwrap();
    let s = ssd.stats();
    println!(
        "   20,000 host writes over 64 hot pages -> {} media slot writes",
        s.media_pages_written
    );
    println!(
        "   coalescing absorbed {:.1}% of the media traffic (endurance, §3.1.1)\n",
        100.0 * (1.0 - s.media_pages_written as f64 / s.pages_written as f64)
    );
    sink.add("2 coalescing", &tel);
}

fn backend_cap(sink: &mut TelemetrySink) {
    let tel = Telemetry::new();
    println!("3) Backend bandwidth cap vs sustained random-write IOPS (128 jobs, no barrier)\n");
    println!("{:<18} {:>12} {:>14}", "cap (MB/s)", "IOPS", "MB/s achieved");
    rule(48);
    for cap in [100u64, 200, 400] {
        let cfg = SsdConfig::durassd(bench::BENCH_BLOCKS_PER_PLANE)
            .to_builder()
            .backend_bytes_per_us(cap)
            .build();
        let mut vol = Volume::new(Ssd::new(cfg), false);
        vol.attach_telemetry(tel.clone(), &format!("cap{cap}"));
        let spec = FioSpec {
            jobs: 128,
            total_ops: 40_000,
            fsync_every: Some(1),
            ..FioSpec::random_write_4k(vol.capacity_pages() / 2, Some(1), 40_000)
        };
        let rep = fio_run(&mut vol, &spec, 0);
        println!(
            "{:<18} {:>12} {:>13.0}",
            cap,
            fmt_rate(rep.throughput()),
            rep.throughput() * 4096.0 / 1e6
        );
    }
    println!("   (the 200 MB/s default reproduces Table 2's nobarrier row)\n");
    sink.add("3 backend cap", &tel);
}

fn journal_threshold(sink: &mut TelemetrySink) {
    let tel = Telemetry::new();
    println!("4) FTL mapping-journal threshold: loss window vs journal traffic\n");
    println!("{:<22} {:>14} {:>16}", "threshold (entries)", "meta programs", "loss window");
    rule(56);
    for thresh in [256usize, 1024, 8192] {
        let cfg = SsdConfig::ssd_a(bench::BENCH_BLOCKS_PER_PLANE)
            .to_builder()
            .mapping_journal_threshold(thresh)
            .build();
        let mut ssd = Ssd::new(cfg);
        ssd.attach_telemetry(tel.clone());
        let page = vec![3u8; LOGICAL_PAGE];
        let mut now = 0;
        for i in 0..30_000u64 {
            now = ssd.write(i % 20_000, &page, now).unwrap();
        }
        println!(
            "{:<22} {:>14} {:>16}",
            thresh,
            ssd.ftl_stats().meta_programs,
            ssd.unpersisted_mapping_entries()
        );
    }
    println!("   (smaller threshold = smaller crash-loss window, more flash wear)\n");
    sink.add("4 journal threshold", &tel);
}

fn capacitor_budget(sink: &mut TelemetrySink) {
    let tel = Telemetry::new();
    println!("5) Capacitor dump sizing: high-water dump bytes vs cache capacity\n");
    let mut ssd = durassd_bench(true);
    ssd.attach_telemetry(tel.clone());
    let page = vec![5u8; LOGICAL_PAGE];
    let mut now = 0;
    for i in 0..30_000u64 {
        now = ssd.write(i % 8192, &page, now).unwrap();
    }
    // Cut at the busiest moment we can produce.
    ssd.power_cut(now);
    let s = ssd.ssd_stats();
    let cfg = *ssd.config();
    println!(
        "   cache capacity {} KB; dump at power cut: {} KB; capacitor budget {} KB",
        cfg.cache_slots * 4,
        s.max_dump_bytes / 1024,
        cfg.capacitor_energy_bytes / 1024
    );
    println!(
        "   headroom {:.1}x — the paper's 'dozens of megabytes' from 15 tantalum caps\n",
        cfg.capacitor_energy_bytes as f64 / s.max_dump_bytes.max(1) as f64
    );
    sink.add("5 capacitor budget", &tel);
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    println!("Design-choice ablations\n=======================\n");
    torn_page_protection(&mut sink);
    coalescing(&mut sink);
    backend_cap(&mut sink);
    journal_threshold(&mut sink);
    capacitor_budget(&mut sink);
    sink.finish();
}
