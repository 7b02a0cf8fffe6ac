//! **Table 1** — Effect of fsync and flush-cache on 4KB random-write IOPS.
//!
//! Reproduces the paper's grid: four devices (HDD, SSD-A, SSD-B, DuraSSD) ×
//! storage cache OFF/ON × fsync every {1,4,8,16,32,64,128,256,∞} writes,
//! plus the DuraSSD `NoBarrier` row where fsync never sends FLUSH CACHE.
//!
//! Run: `cargo run -p bench --release --bin table1 [--ops N]`

use bench::{
    durassd_bench, fmt_rate, hdd_bench, observed_hdd, observed_ssd, print_telemetry, row_telemetry,
    rule, ssd_a_bench, ssd_b_bench, ssd_health_line, TelemetrySink,
};
use durassd::Ssd;
use hdd::Hdd;
use storage::device::BlockDevice;
use storage::volume::Volume;
use telemetry::Telemetry;
use workloads::fio::{run, FioSpec};

const FREQS: [Option<u32>; 9] =
    [Some(1), Some(4), Some(8), Some(16), Some(32), Some(64), Some(128), Some(256), None];

/// Paper Table 1 values, for side-by-side printing.
const PAPER: &[(&str, [u64; 9])] = &[
    ("HDD        OFF", [58, 111, 130, 143, 151, 155, 156, 157, 158]),
    ("HDD        ON ", [59, 135, 184, 234, 251, 335, 375, 381, 387]),
    ("SSD-A      OFF", [168, 332, 397, 441, 463, 479, 480, 490, 494]),
    ("SSD-A      ON ", [256, 759, 1297, 2219, 3595, 5094, 6794, 8782, 11681]),
    ("SSD-B      OFF", [603, 732, 889, 995, 1042, 1082, 1114, 1124, 1157]),
    ("SSD-B      ON ", [655, 1762, 2319, 3152, 4046, 5177, 6318, 8575, 8456]),
    ("DuraSSD    OFF", [249, 330, 438, 467, 482, 490, 495, 497, 498]),
    ("DuraSSD    ON ", [225, 836, 1556, 2556, 5020, 6969, 10582, 12647, 15319]),
    ("DuraSSD NoBarr", [14484, 14800, 14813, 14824, 14840, 14863, 15063, 15181, 15458]),
];

/// One cell: the measured IOPS and the device as the run left it.
fn measure<D: BlockDevice>(
    dev: D,
    barriers: bool,
    fsync_every: Option<u32>,
    ops: u64,
    tel: &Telemetry,
) -> (f64, D) {
    let mut vol = Volume::new(dev, barriers);
    vol.attach_telemetry(tel.clone(), "t1");
    // Random writes over most of the device, like fio on a raw drive (for
    // the disk, the span determines seek distances).
    let span = vol.capacity_pages() * 3 / 4;
    let spec = FioSpec::random_write_4k(span, fsync_every, ops);
    let rep = run(&mut vol, &spec, 0);
    (rep.throughput(), vol.into_device())
}

fn ops_for(row: &str, fsync_every: Option<u32>) -> u64 {
    let base = bench::arg_u64("--ops", 20_000);
    // Slow cells (mechanical or flush-per-write) need fewer ops for a
    // stable mean; fast cells get the full count.
    match (row.starts_with("HDD"), fsync_every) {
        // The disk's cache (4096 pages) must saturate for sustained rates.
        (true, None) => base,
        (true, Some(n)) if n >= 64 => base,
        (true, _) => base / 10,
        (false, Some(n)) if n <= 8 => base / 4,
        _ => base,
    }
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    println!("Table 1: 4KB random-write IOPS vs fsync frequency");
    println!("(paper value / measured value per cell)\n");
    let hdr = FREQS
        .iter()
        .map(|f| match f {
            Some(n) => format!("{n:>7}"),
            None => "  no-fs".to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ");
    println!("{:<16} {hdr}", "Device/Cache");
    rule(16 + 8 * FREQS.len());
    for (row, paper_vals) in PAPER {
        // One telemetry domain per device row: the segment mix is a property
        // of the device/barrier combination, aggregated across fsync freqs.
        let tel = row_telemetry();
        let ssd = |dev: Ssd, barriers, freq, ops| {
            let (iops, dev) = measure(observed_ssd(dev, &tel), barriers, freq, ops, &tel);
            (iops, Some(ssd_health_line(&dev)))
        };
        let hdd =
            |dev: Hdd, freq, ops| (measure(observed_hdd(dev, &tel), true, freq, ops, &tel).0, None);
        let mut cells = Vec::new();
        let mut health: Option<String> = None;
        for (i, &freq) in FREQS.iter().enumerate() {
            let ops = ops_for(row, freq);
            let (iops, h) = match *row {
                "HDD        OFF" => hdd(hdd_bench(false), freq, ops),
                "HDD        ON " => hdd(hdd_bench(true), freq, ops),
                "SSD-A      OFF" => ssd(ssd_a_bench(false), true, freq, ops),
                "SSD-A      ON " => ssd(ssd_a_bench(true), true, freq, ops),
                "SSD-B      OFF" => ssd(ssd_b_bench(false), true, freq, ops),
                "SSD-B      ON " => ssd(ssd_b_bench(true), true, freq, ops),
                "DuraSSD    OFF" => ssd(durassd_bench(false), true, freq, ops),
                "DuraSSD    ON " => ssd(durassd_bench(true), true, freq, ops),
                "DuraSSD NoBarr" => ssd(durassd_bench(true), false, freq, ops),
                _ => unreachable!(),
            };
            health = h.or(health);
            cells.push(format!("{:>7}", fmt_rate(iops)));
            let _ = paper_vals[i];
        }
        println!("{:<16} {}", row, cells.join(" "));
        let paper_row =
            paper_vals.iter().map(|v| format!("{:>7}", fmt_rate(*v as f64))).collect::<Vec<_>>();
        println!("{:<16} {}   <- paper", "", paper_row.join(" "));
        print_telemetry("      ", &tel, &["dev.t1.write", "dev.t1.flush"]);
        if let Some(h) = &health {
            println!("      {h}");
        }
        sink.add(row.trim_end(), &tel);
    }
    sink.finish();
    println!(
        "\nNote the attribution shift: barriered rows burn their time in `flush_cache`,\n\
         while `DuraSSD NoBarr` spends ~0% there — the durable cache absorbs it."
    );
}
