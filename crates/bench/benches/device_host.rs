//! Host cost of the NVMM emulation's hot paths, in virtual time (no
//! busy-waits: every nanosecond reported is Rust code, not modeled delay).
//!
//! - `persist_64_lines`: one 4 KiB persist booked line by line in the
//!   bandwidth gate's calendar.
//! - `free_all_16_blocks`: freeing a 16-block PMFS file, which scans its
//!   512-slot tree node and clears 16 pointers.
//! - `dir_lookup_20`: a PMFS lookup of the last name in a 20-entry
//!   directory, which parses the whole directory block.
//!
//! Run with `cargo bench -p hinfs-bench --bench device_host`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use fskit::FileType;
use nvmm::{Cat, CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
use pmfs::alloc::Allocator;
use pmfs::inode::InodeMem;
use pmfs::{dir, file, tree, Journal, Layout};

const BLOCKS: u64 = 4096;

fn device() -> (Arc<NvmmDevice>, Layout) {
    let dev = NvmmDevice::new(
        SimEnv::new_virtual(CostModel::default()),
        BLOCKS as usize * BLOCK_SIZE,
    );
    (dev, Layout::compute(BLOCKS, 64, 128).expect("layout"))
}

fn persist(c: &mut Criterion) {
    let env = SimEnv::new_virtual(CostModel::default());
    c.benchmark_group("device_host")
        .sample_size(50)
        .bench_function("persist_64_lines", |b| {
            b.iter(|| env.nvmm_persist(Cat::UserWrite, 64))
        });
}

fn free_all(c: &mut Criterion) {
    let (dev, layout) = device();
    let alloc = Allocator::new_empty(&layout);
    c.benchmark_group("device_host")
        .sample_size(50)
        .bench_function("free_all_16_blocks", |b| {
            b.iter_with_setup(
                || {
                    let mut mem = InodeMem::new(FileType::File, 0);
                    for i in 0..16 {
                        let blk = alloc.alloc().expect("alloc");
                        tree::insert(&dev, &alloc, &mut mem, i, blk).expect("insert");
                        mem.blocks += 1;
                    }
                    mem
                },
                |mut mem| file::free_all(&dev, &alloc, &mut mem),
            )
        });
}

fn dir_lookup(c: &mut Criterion) {
    let (dev, layout) = device();
    Journal::format(&dev, &layout);
    let journal = Journal::open(dev.clone(), &layout).expect("journal");
    let alloc = Allocator::new_empty(&layout);
    let mut mem = InodeMem::new(FileType::Dir, 0);
    for i in 0..20 {
        let tx = journal.begin().expect("begin");
        dir::add(
            &dev,
            &journal,
            &tx,
            &alloc,
            &mut mem,
            &format!("file{i:02}"),
            100 + i,
            FileType::File,
        )
        .expect("add");
        journal.commit(tx);
    }
    c.benchmark_group("device_host")
        .sample_size(50)
        .bench_function("dir_lookup_20", |b| {
            b.iter(|| dir::lookup(&dev, &mem, "file19").expect("lookup"))
        });
}

criterion_group!(benches, persist, free_all, dir_lookup);
criterion_main!(benches);
