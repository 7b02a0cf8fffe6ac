//! TPC-C on the `relstore` engine (paper §4.3.2, Table 4).
//!
//! Implements the five standard transaction types with the standard mix
//! (New-Order 45%, Payment 43%, Order-Status 4%, Delivery 4%, Stock-Level
//! 4%) over the nine-table warehouse schema, scaled down for simulation.
//! Throughput is reported as **tpmC** — New-Order transactions per virtual
//! minute — matching Table 4's metric.
//!
//! Row payloads use fixed layouts with filler bytes sized roughly like the
//! spec's rows; the quantities that transactions actually read-modify-write
//! (`d_next_o_id`, stock quantities, balances, YTD sums) are real fields.

use crate::cpu::CpuModel;
use relstore::{Engine, TreeId};
use simkit::dist::rng;
use simkit::dist::Rng;
use simkit::{ClosedLoop, Nanos, SECS};
use storage::device::BlockDevice;

/// Workload parameters (scaled-down TPC-C).
#[derive(Debug, Clone, Copy)]
pub struct TpccSpec {
    /// Warehouses (the paper uses 1000; scale down proportionally).
    pub warehouses: u32,
    /// Districts per warehouse (spec: 10).
    pub districts: u32,
    /// Customers per district (spec: 3000; scaled).
    pub customers: u32,
    /// Items (spec: 100k; scaled).
    pub items: u32,
    /// Concurrent terminals.
    pub clients: usize,
    /// Warm-up transactions (discarded).
    pub warmup_txns: u64,
    /// Measured transactions.
    pub txns: u64,
    /// RNG seed.
    pub seed: u64,
    /// Host cores.
    pub cores: usize,
    /// Software cost per transaction (ns). TPC-C transactions touch tens of
    /// rows; a commercial engine spends several core-ms on one.
    pub cpu_per_txn: u64,
}

impl TpccSpec {
    /// A scaled configuration with spec-shaped ratios.
    pub fn scaled(warehouses: u32, txns: u64) -> Self {
        Self {
            warehouses,
            districts: 10,
            customers: 120,
            items: 2000,
            clients: 32,
            warmup_txns: txns / 10,
            txns,
            seed: 0x7bcc,
            cores: 32,
            cpu_per_txn: 5_500_000,
        }
    }
}

/// Table handles.
pub struct TpccDb {
    warehouse: TreeId,
    district: TreeId,
    customer: TreeId,
    item: TreeId,
    stock: TreeId,
    orders: TreeId,
    new_order: TreeId,
    order_line: TreeId,
    history: TreeId,
    next_h_id: u64,
}

/// Per-run counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpccReportCounts {
    /// Committed New-Order transactions (the tpmC numerator).
    pub new_orders: u64,
    /// Payment transactions.
    pub payments: u64,
    /// Order-status transactions.
    pub order_status: u64,
    /// Delivery transactions.
    pub deliveries: u64,
    /// Stock-level transactions.
    pub stock_levels: u64,
}

/// Run report.
#[derive(Debug, Clone, Copy)]
pub struct TpccReport {
    /// Transaction counters by type.
    pub counts: TpccReportCounts,
    /// Virtual duration of the measured phase.
    pub elapsed: Nanos,
    /// Virtual time of the last completion (timeline continuation point
    /// for callers that keep simulating, e.g. the trace recorder).
    pub finished_at: Nanos,
    /// New-Order transactions per virtual minute.
    pub tpmc: f64,
}

// ---- keys ------------------------------------------------------------------

fn k_w(w: u32) -> Vec<u8> {
    w.to_be_bytes().to_vec()
}

fn k_d(w: u32, d: u32) -> Vec<u8> {
    // Room for the longest key built on this prefix (`k_ol`): one allocation.
    let mut k = Vec::with_capacity(16);
    k.extend_from_slice(&w.to_be_bytes());
    k.extend_from_slice(&d.to_be_bytes());
    k
}

fn k_c(w: u32, d: u32, c: u32) -> Vec<u8> {
    let mut k = k_d(w, d);
    k.extend_from_slice(&c.to_be_bytes());
    k
}

fn k_i(i: u32) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn k_s(w: u32, i: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(8);
    k.extend_from_slice(&w.to_be_bytes());
    k.extend_from_slice(&i.to_be_bytes());
    k
}

fn k_o(w: u32, d: u32, o: u32) -> Vec<u8> {
    let mut k = k_d(w, d);
    k.extend_from_slice(&o.to_be_bytes());
    k
}

fn k_ol(w: u32, d: u32, o: u32, l: u32) -> Vec<u8> {
    let mut k = k_o(w, d, o);
    k.extend_from_slice(&l.to_be_bytes());
    k
}

// ---- rows ------------------------------------------------------------------

fn row(fixed: &[u8], filler: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(fixed.len() + filler);
    v.extend_from_slice(fixed);
    v.extend(std::iter::repeat_n(b'f', filler));
    v
}

fn district_row(next_o_id: u32, ytd: u64) -> Vec<u8> {
    let mut fixed = next_o_id.to_le_bytes().to_vec();
    fixed.extend_from_slice(&ytd.to_le_bytes());
    row(&fixed, 84)
}

fn district_next_o_id(r: &[u8]) -> u32 {
    u32::from_le_bytes(r[..4].try_into().expect("district row"))
}

fn district_ytd(r: &[u8]) -> u64 {
    u64::from_le_bytes(r[4..12].try_into().expect("district row"))
}

fn stock_row(qty: i32, ytd: u32) -> Vec<u8> {
    let mut fixed = qty.to_le_bytes().to_vec();
    fixed.extend_from_slice(&ytd.to_le_bytes());
    row(&fixed, 280)
}

fn stock_qty(r: &[u8]) -> i32 {
    i32::from_le_bytes(r[..4].try_into().expect("stock row"))
}

fn stock_ytd(r: &[u8]) -> u32 {
    u32::from_le_bytes(r[4..8].try_into().expect("stock row"))
}

fn customer_row(balance: i64) -> Vec<u8> {
    row(&balance.to_le_bytes(), 440)
}

fn customer_balance(r: &[u8]) -> i64 {
    i64::from_le_bytes(r[..8].try_into().expect("customer row"))
}

fn warehouse_row(ytd: u64) -> Vec<u8> {
    row(&ytd.to_le_bytes(), 81)
}

fn warehouse_ytd(r: &[u8]) -> u64 {
    u64::from_le_bytes(r[..8].try_into().expect("warehouse row"))
}

/// Populate the database; ends with a checkpoint.
pub fn load<D: BlockDevice, L: BlockDevice>(
    engine: &mut Engine<D, L>,
    spec: &TpccSpec,
    now: Nanos,
) -> (TpccDb, Nanos) {
    let (warehouse, t) = engine.create_tree(now).into_parts();
    let (district, t) = engine.create_tree(t).into_parts();
    let (customer, t) = engine.create_tree(t).into_parts();
    let (item, t) = engine.create_tree(t).into_parts();
    let (stock, t) = engine.create_tree(t).into_parts();
    let (orders, t) = engine.create_tree(t).into_parts();
    let (new_order, t) = engine.create_tree(t).into_parts();
    let (order_line, t) = engine.create_tree(t).into_parts();
    let (history, mut t) = engine.create_tree(t).into_parts();
    for i in 0..spec.items {
        t = engine.put(item, &k_i(i), &row(&i.to_le_bytes(), 60), t);
        if i % 512 == 511 {
            t = engine.commit(t);
        }
    }
    for w in 0..spec.warehouses {
        t = engine.put(warehouse, &k_w(w), &warehouse_row(0), t);
        for i in 0..spec.items {
            t = engine.put(stock, &k_s(w, i), &stock_row(100, 0), t);
            if i % 512 == 511 {
                t = engine.commit(t);
                if engine.needs_checkpoint() {
                    t = engine.checkpoint(t);
                }
            }
        }
        for d in 0..spec.districts {
            t = engine.put(district, &k_d(w, d), &district_row(1, 0), t);
            for c in 0..spec.customers {
                t = engine.put(customer, &k_c(w, d, c), &customer_row(-10), t);
            }
            t = engine.commit(t);
            if engine.needs_checkpoint() {
                t = engine.checkpoint(t);
            }
        }
    }
    t = engine.commit(t);
    t = engine.checkpoint(t);
    let db = TpccDb {
        warehouse,
        district,
        customer,
        item,
        stock,
        orders,
        new_order,
        order_line,
        history,
        next_h_id: 0,
    };
    (db, t)
}

fn new_order<D: BlockDevice, L: BlockDevice, R: Rng>(
    e: &mut Engine<D, L>,
    db: &mut TpccDb,
    spec: &TpccSpec,
    r: &mut R,
    now: Nanos,
) -> Nanos {
    let w = r.gen_range(0..spec.warehouses);
    let d = r.gen_range(0..spec.districts);
    let c = r.gen_range(0..spec.customers);
    let (_, t) = e.get(db.warehouse, &k_w(w), now).into_parts();
    let (drow, t) = e.get(db.district, &k_d(w, d), t).into_parts();
    let drow = drow.expect("district loaded");
    let o_id = district_next_o_id(&drow);
    let mut t = e.put(db.district, &k_d(w, d), &district_row(o_id + 1, district_ytd(&drow)), t);
    let (_, t2) = e.get(db.customer, &k_c(w, d, c), t).into_parts();
    t = t2;
    let ol_cnt = r.gen_range(5..=15u32);
    let mut fixed = c.to_le_bytes().to_vec();
    fixed.push(ol_cnt as u8);
    t = e.put(db.orders, &k_o(w, d, o_id), &row(&fixed, 20), t);
    t = e.put(db.new_order, &k_o(w, d, o_id), &[1u8], t);
    for l in 0..ol_cnt {
        let i = r.gen_range(0..spec.items);
        let (_, t2) = e.get(db.item, &k_i(i), t).into_parts();
        let (srow, t3) = e.get(db.stock, &k_s(w, i), t2).into_parts();
        let srow = srow.expect("stock loaded");
        let qty = stock_qty(&srow);
        let new_qty = if qty > 10 { qty - r.gen_range(1..=10) } else { qty + 91 };
        t = e.put(db.stock, &k_s(w, i), &stock_row(new_qty, stock_ytd(&srow) + 1), t3);
        let mut lf = i.to_le_bytes().to_vec();
        lf.push(r.gen_range(1..=10u32) as u8);
        t = e.put(db.order_line, &k_ol(w, d, o_id, l), &row(&lf, 40), t);
    }
    e.commit(t)
}

fn payment<D: BlockDevice, L: BlockDevice, R: Rng>(
    e: &mut Engine<D, L>,
    db: &mut TpccDb,
    spec: &TpccSpec,
    r: &mut R,
    now: Nanos,
) -> Nanos {
    let w = r.gen_range(0..spec.warehouses);
    let d = r.gen_range(0..spec.districts);
    let c = r.gen_range(0..spec.customers);
    let amount = r.gen_range(1..=5000i64);
    let (wrow, t) = e.get(db.warehouse, &k_w(w), now).into_parts();
    let wrow = wrow.expect("warehouse loaded");
    let t = e.put(db.warehouse, &k_w(w), &warehouse_row(warehouse_ytd(&wrow) + amount as u64), t);
    let (drow, t) = e.get(db.district, &k_d(w, d), t).into_parts();
    let drow = drow.expect("district loaded");
    let t = e.put(
        db.district,
        &k_d(w, d),
        &district_row(district_next_o_id(&drow), district_ytd(&drow) + amount as u64),
        t,
    );
    let (crow, t) = e.get(db.customer, &k_c(w, d, c), t).into_parts();
    let crow = crow.expect("customer loaded");
    let t = e.put(db.customer, &k_c(w, d, c), &customer_row(customer_balance(&crow) - amount), t);
    db.next_h_id += 1;
    let t = e.put(db.history, &db.next_h_id.to_be_bytes(), &row(&amount.to_le_bytes(), 24), t);
    e.commit(t)
}

fn order_status<D: BlockDevice, L: BlockDevice, R: Rng>(
    e: &mut Engine<D, L>,
    db: &mut TpccDb,
    spec: &TpccSpec,
    r: &mut R,
    now: Nanos,
) -> Nanos {
    let w = r.gen_range(0..spec.warehouses);
    let d = r.gen_range(0..spec.districts);
    let c = r.gen_range(0..spec.customers);
    let (_, t) = e.get(db.customer, &k_c(w, d, c), now).into_parts();
    // Latest order of the district, then its lines.
    let (drow, t) = e.get(db.district, &k_d(w, d), t).into_parts();
    let next = drow.map(|x| district_next_o_id(&x)).unwrap_or(1);
    if next <= 1 {
        return t;
    }
    let o = next - 1;
    let (_, t) = e.get(db.orders, &k_o(w, d, o), t).into_parts();
    let mut lines = 0;
    e.scan_with(db.order_line, &k_ol(w, d, o, 0), t, |_, _| {
        lines += 1;
        lines < 15
    })
}

fn delivery<D: BlockDevice, L: BlockDevice, R: Rng>(
    e: &mut Engine<D, L>,
    db: &mut TpccDb,
    spec: &TpccSpec,
    r: &mut R,
    now: Nanos,
) -> Nanos {
    let w = r.gen_range(0..spec.warehouses);
    let mut t = now;
    for d in 0..spec.districts {
        // Oldest undelivered order in the district.
        let mut oldest = None;
        t = e.scan_with(db.new_order, &k_o(w, d, 0), t, |k, _| {
            oldest = <[u8; 12]>::try_from(k).ok();
            false
        });
        let Some(key) = oldest.filter(|key| key[..8] == k_d(w, d)[..]) else {
            continue; // no order left, or the scan ran past the district
        };
        let (_, t2) = e.delete(db.new_order, &key, t).into_parts();
        t = t2;
        let (orow, t2) = e.get(db.orders, &key, t).into_parts();
        t = t2;
        if let Some(mut orow) = orow {
            if orow.len() > 5 {
                orow[5] = 1; // carrier assigned
            }
            t = e.put(db.orders, &key, &orow, t);
        }
        let c = r.gen_range(0..spec.customers);
        let (crow, t2) = e.get(db.customer, &k_c(w, d, c), t).into_parts();
        t = t2;
        if let Some(crow) = crow {
            t = e.put(db.customer, &k_c(w, d, c), &customer_row(customer_balance(&crow) + 10), t);
        }
    }
    e.commit(t)
}

fn stock_level<D: BlockDevice, L: BlockDevice, R: Rng>(
    e: &mut Engine<D, L>,
    db: &mut TpccDb,
    spec: &TpccSpec,
    r: &mut R,
    now: Nanos,
) -> Nanos {
    let w = r.gen_range(0..spec.warehouses);
    let d = r.gen_range(0..spec.districts);
    let threshold = r.gen_range(10..=20);
    let (drow, t) = e.get(db.district, &k_d(w, d), now).into_parts();
    let next = drow.map(|x| district_next_o_id(&x)).unwrap_or(1);
    let from = next.saturating_sub(20).max(1);
    // The items of up to 100 order lines, as far as they are the district's.
    let district = k_d(w, d);
    let mut items = [0u32; 100];
    let (mut lines, mut found, mut in_district) = (0, 0, true);
    let mut t = e.scan_with(db.order_line, &k_ol(w, d, from, 0), t, |k, v| {
        in_district &= k.len() == 16 && k[..8] == district[..];
        if in_district {
            items[found] = u32::from_le_bytes(v[..4].try_into().unwrap_or_default());
            found += 1;
        }
        lines += 1;
        lines < items.len()
    });
    let mut checked = 0;
    for item in &items[..found] {
        let (srow, t2) = e.get(db.stock, &k_s(w, item % spec.items), t).into_parts();
        t = t2;
        if let Some(srow) = srow {
            if stock_qty(&srow) < threshold {
                checked += 1;
            }
        }
    }
    let _ = checked;
    t
}

/// Run the benchmark and report tpmC.
pub fn run<D: BlockDevice, L: BlockDevice>(
    engine: &mut Engine<D, L>,
    db: &mut TpccDb,
    spec: &TpccSpec,
    start: Nanos,
) -> TpccReport {
    let mut rngs: Vec<_> = (0..spec.clients).map(|c| rng(spec.seed ^ ((c as u64) << 17))).collect();
    let mut counts = TpccReportCounts::default();
    let mut cpu = CpuModel::new(spec.cores, spec.cpu_per_txn);
    let mut driver = ClosedLoop::new(spec.clients, start);
    let txn = |e: &mut Engine<D, L>,
               db: &mut TpccDb,
               counts: Option<&mut TpccReportCounts>,
               r: &mut simkit::dist::SimRng,
               now: Nanos| {
        let x = r.gen_range(0..100u32);
        let (done, kind) = if x < 45 {
            (new_order(e, db, spec, r, now), 0)
        } else if x < 88 {
            (payment(e, db, spec, r, now), 1)
        } else if x < 92 {
            (order_status(e, db, spec, r, now), 2)
        } else if x < 96 {
            (delivery(e, db, spec, r, now), 3)
        } else {
            (stock_level(e, db, spec, r, now), 4)
        };
        if let Some(c) = counts {
            match kind {
                0 => c.new_orders += 1,
                1 => c.payments += 1,
                2 => c.order_status += 1,
                3 => c.deliveries += 1,
                _ => c.stock_levels += 1,
            }
        }
        if e.needs_checkpoint() {
            e.checkpoint(done)
        } else {
            done
        }
    };
    driver.warmup(spec.warmup_txns, |client, now| {
        let mut r = rngs[client].clone();
        let t0 = cpu.charge(now);
        let t = txn(engine, db, None, &mut r, t0);
        rngs[client] = r;
        t
    });
    engine.reset_pool_stats();
    let rep = driver.run(spec.txns, |client, now| {
        let mut r = rngs[client].clone();
        let t0 = cpu.charge(now);
        let t = txn(engine, db, Some(&mut counts), &mut r, t0);
        rngs[client] = r;
        t
    });
    let elapsed = rep.elapsed();
    let minutes = elapsed as f64 / (60.0 * SECS as f64);
    TpccReport {
        counts,
        elapsed,
        finished_at: rep.finished_at,
        tpmc: if minutes > 0.0 { counts.new_orders as f64 / minutes } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::EngineConfig;
    use storage::testdev::MemDevice;

    fn engine() -> Engine<MemDevice, MemDevice> {
        let cfg = EngineConfig {
            data_pages: 32 * 1024,
            buffer_pool_bytes: 512 * 4096,
            log_file_blocks: 4096,
            ..EngineConfig::mysql_like(4096)
        };
        Engine::create(MemDevice::new(160 * 1024), MemDevice::new(32 * 1024), cfg, 0).value
    }

    fn tiny_spec() -> TpccSpec {
        TpccSpec {
            warehouses: 2,
            districts: 3,
            customers: 20,
            items: 50,
            clients: 4,
            warmup_txns: 10,
            txns: 120,
            seed: 42,
            cores: 8,
            cpu_per_txn: 100_000,
        }
    }

    #[test]
    fn load_and_run_counts_transactions() {
        let mut e = engine();
        let spec = tiny_spec();
        let (mut db, t) = load(&mut e, &spec, 0);
        let rep = run(&mut e, &mut db, &spec, t);
        let total = rep.counts.new_orders
            + rep.counts.payments
            + rep.counts.order_status
            + rep.counts.deliveries
            + rep.counts.stock_levels;
        assert_eq!(total, 120);
        assert!(rep.counts.new_orders > 30, "mix ~45% new-order: {:?}", rep.counts);
        assert!(rep.counts.payments > 30);
        assert!(rep.tpmc > 0.0);
    }

    #[test]
    fn new_order_advances_district_counter() {
        let mut e = engine();
        let spec = tiny_spec();
        let (mut db, t) = load(&mut e, &spec, 0);
        let mut r = rng(1);
        let mut t = t;
        for _ in 0..5 {
            t = new_order(&mut e, &mut db, &spec, &mut r, t);
        }
        // Some district's next_o_id grew beyond 1.
        let mut grew = false;
        for w in 0..spec.warehouses {
            for d in 0..spec.districts {
                let (row, t2) = e.get(db.district, &k_d(w, d), t).into_parts();
                t = t2;
                if district_next_o_id(&row.unwrap()) > 1 {
                    grew = true;
                }
            }
        }
        assert!(grew);
    }

    #[test]
    fn payment_moves_money() {
        let mut e = engine();
        let spec = tiny_spec();
        let (mut db, t) = load(&mut e, &spec, 0);
        let mut r = rng(2);
        let t = payment(&mut e, &mut db, &spec, &mut r, t);
        let mut total_ytd = 0u64;
        let mut t = t;
        for w in 0..spec.warehouses {
            let (row, t2) = e.get(db.warehouse, &k_w(w), t).into_parts();
            t = t2;
            total_ytd += warehouse_ytd(&row.unwrap());
        }
        assert!(total_ytd > 0, "payment must add to some warehouse YTD");
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let mut e = engine();
        let spec = tiny_spec();
        let (mut db, t) = load(&mut e, &spec, 0);
        let mut r = rng(3);
        let mut t = t;
        for _ in 0..6 {
            t = new_order(&mut e, &mut db, &spec, &mut r, t);
        }
        let (before, t2) = e.scan(db.new_order, &[], 1000, t).into_parts();
        // Deliver from every warehouse (random w inside, run a few times).
        let mut t = t2;
        for _ in 0..6 {
            t = delivery(&mut e, &mut db, &spec, &mut r, t);
        }
        let (after, _) = e.scan(db.new_order, &[], 1000, t).into_parts();
        assert!(after.len() < before.len(), "{} -> {}", before.len(), after.len());
    }
}
