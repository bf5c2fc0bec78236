//! GPU scrub cost (experiment E11's performance face): wall-clock cost of
//! the epilog clear as device memory grows, and the device-file permission
//! flip that accompanies every assignment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eus_accel::{assign_device, create_device_node, revoke_device, Gpu};
use eus_simos::{DeviceId, Gid, NodeId, Vfs};
use std::hint::black_box;

fn bench_scrub(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu/scrub");
    for mib in [1usize, 16, 64] {
        let bytes = mib << 20;
        g.throughput(Throughput::Bytes(bytes as u64));
        g.bench_with_input(BenchmarkId::new("mib", mib), &bytes, |b, &bytes| {
            let mut gpu = Gpu::new(NodeId(1), 0, bytes);
            b.iter(|| {
                gpu.write(0, &[0xAB; 64]).unwrap();
                black_box(gpu.scrub())
            })
        });
    }
    g.finish();
}

fn bench_device_perm_flip(c: &mut Criterion) {
    let mut fs = Vfs::standard_node_layout("bench");
    let dev = DeviceId::gpu(0);
    create_device_node(&mut fs, dev).unwrap();
    c.bench_function("gpu/assign_revoke_cycle", |b| {
        b.iter(|| {
            assign_device(&mut fs, dev, Gid(1000)).unwrap();
            revoke_device(&mut fs, dev).unwrap();
        })
    });
}

criterion_group!(benches, bench_scrub, bench_device_perm_flip);
criterion_main!(benches);
