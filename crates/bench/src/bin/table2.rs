//! **Table 2** — Effect of page size on IOPS.
//!
//! (a) DuraSSD: read-only with 128 threads; write-only fsync-every-write;
//!     write-only fsync-every-256; write-only 128 threads with `nobarrier` —
//!     each at page sizes 16/8/4KB.
//! (b) Disk: read-only and write-only with 128 threads.
//!
//! Run: `cargo run -p bench --release --bin table2 [--ops N]`

use bench::{
    arg_u64, durassd_bench, fmt_rate, hdd_bench, observed_hdd, observed_ssd, print_telemetry,
    row_telemetry, rule, TelemetrySink,
};
use storage::device::BlockDevice;
use storage::volume::Volume;
use telemetry::Telemetry;
use workloads::fio::{run, FioOp, FioSpec};

const SIZES: [usize; 3] = [16384, 8192, 4096];

struct Row {
    label: &'static str,
    paper: [u64; 3],
    op: FioOp,
    jobs: usize,
    fsync_every: Option<u32>,
    barriers: bool,
}

fn measure<D: BlockDevice>(dev: D, row: &Row, block_size: usize, ops: u64, tel: &Telemetry) -> f64 {
    let mut vol = Volume::new(dev, row.barriers);
    let pages_per_block = (block_size / 4096) as u64;
    let span = vol.capacity_pages() * 3 / 4 / pages_per_block;
    let spec = FioSpec {
        op: row.op,
        block_size,
        span_blocks: span,
        fsync_every: row.fsync_every,
        jobs: row.jobs,
        total_ops: ops,
        seed: 0x22,
    };
    // Reads need data on the media first: preload the span sparsely is not
    // needed — unmapped reads are served as zeroes with full media timing on
    // the disk; for the SSD, preload a slice so reads hit NAND.
    if row.op == FioOp::Read {
        let wspec = FioSpec {
            op: FioOp::Write,
            fsync_every: None,
            jobs: 1,
            total_ops: (ops / 4).min(20_000),
            ..spec
        };
        let t = run(&mut vol, &wspec, 0).finished_at;
        let _ = vol.fsync(t);
    }
    // Attach after the preload so the row's telemetry reflects only the
    // measured phase.
    vol.attach_telemetry(tel.clone(), "t2");
    run(&mut vol, &spec, 1_000_000_000_000).throughput()
}

fn main() {
    let mut sink = TelemetrySink::from_args();
    let base_ops = arg_u64("--ops", 30_000);
    println!("Table 2: effect of page size on IOPS (paper / measured)\n");
    println!("(a) DuraSSD");
    let dura_rows = [
        Row {
            label: "Read-only (128 threads)",
            paper: [29_870, 57_847, 89_083],
            op: FioOp::Read,
            jobs: 128,
            fsync_every: None,
            barriers: true,
        },
        Row {
            label: "Write-only (1-fsync)",
            paper: [196, 206, 225],
            op: FioOp::Write,
            jobs: 1,
            fsync_every: Some(1),
            barriers: true,
        },
        Row {
            label: "Write-only (256-fsync)",
            paper: [4_563, 7_978, 12_647],
            op: FioOp::Write,
            jobs: 1,
            fsync_every: Some(256),
            barriers: true,
        },
        Row {
            label: "Write-only (128 no-barrier)",
            paper: [13_446, 25_546, 49_009],
            op: FioOp::Write,
            jobs: 128,
            fsync_every: Some(1),
            barriers: false,
        },
    ];
    println!("{:<30} {:>10} {:>10} {:>10}", "", "16KB", "8KB", "4KB");
    rule(64);
    for row in &dura_rows {
        let tel = row_telemetry();
        let mut meas = Vec::new();
        for &sz in &SIZES {
            let ops =
                if row.fsync_every == Some(1) && row.barriers { base_ops / 6 } else { base_ops };
            meas.push(measure(observed_ssd(durassd_bench(true), &tel), row, sz, ops, &tel));
        }
        println!(
            "{:<30} {:>10} {:>10} {:>10}",
            row.label,
            fmt_rate(meas[0]),
            fmt_rate(meas[1]),
            fmt_rate(meas[2])
        );
        println!(
            "{:<30} {:>10} {:>10} {:>10}   <- paper",
            "",
            fmt_rate(row.paper[0] as f64),
            fmt_rate(row.paper[1] as f64),
            fmt_rate(row.paper[2] as f64)
        );
        print_telemetry("      ", &tel, &["dev.t2.read", "dev.t2.write", "dev.t2.flush"]);
        sink.add(&format!("DuraSSD {}", row.label), &tel);
    }
    println!("\n(b) Harddisk (15krpm)");
    let hdd_rows = [
        Row {
            label: "Read-only (128 threads)",
            paper: [516, 528, 538],
            op: FioOp::Read,
            jobs: 128,
            fsync_every: None,
            barriers: true,
        },
        Row {
            label: "Write-only (128 threads)",
            paper: [428, 439, 444],
            op: FioOp::Write,
            jobs: 128,
            fsync_every: None,
            barriers: true,
        },
    ];
    println!("{:<30} {:>10} {:>10} {:>10}", "", "16KB", "8KB", "4KB");
    rule(64);
    for row in &hdd_rows {
        let tel = row_telemetry();
        let mut meas = Vec::new();
        for &sz in &SIZES {
            // Reads are mechanical (few ops suffice); writes must fill the
            // 16MB cache to reach the sustained destage rate.
            let ops = if row.op == FioOp::Read { base_ops / 6 } else { base_ops * 2 };
            meas.push(measure(observed_hdd(hdd_bench(true), &tel), row, sz, ops, &tel));
        }
        println!(
            "{:<30} {:>10} {:>10} {:>10}",
            row.label,
            fmt_rate(meas[0]),
            fmt_rate(meas[1]),
            fmt_rate(meas[2])
        );
        println!(
            "{:<30} {:>10} {:>10} {:>10}   <- paper",
            "",
            fmt_rate(row.paper[0] as f64),
            fmt_rate(row.paper[1] as f64),
            fmt_rate(row.paper[2] as f64)
        );
        print_telemetry("      ", &tel, &["dev.t2.read", "dev.t2.write", "dev.t2.flush"]);
        sink.add(&format!("HDD {}", row.label), &tel);
    }
    sink.finish();
}
