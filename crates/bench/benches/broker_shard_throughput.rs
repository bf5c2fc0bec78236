//! Sharded-broker batch-verification throughput: the scale claim, measured.
//!
//! A single broker verifies a batch sequentially; the sharded plane splits
//! the batch into one chunk per shard and fans the chunks out on real
//! threads (the rayon shim's scoped-thread pool). Throughput should grow
//! near-linearly with shard count until the core count saturates, and the
//! 1-shard row must stay at single-broker cost (no sharding tax on small
//! deployments).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eus_fedauth::{
    shared_broker, BrokerPolicy, CredentialPlane, RealmId, ShardedBroker, SignedToken,
};
use eus_simos::{Uid, UserDb};
use rayon::prelude::*;
use std::hint::black_box;

const USERS: usize = 128;
const TOKENS_PER_USER: usize = 512;

fn populated(shards: usize) -> (ShardedBroker, Vec<SignedToken>) {
    let mut db = UserDb::new();
    let users: Vec<Uid> = (0..USERS)
        .map(|i| db.create_user(&format!("u{i}")).unwrap())
        .collect();
    let mut plane = ShardedBroker::new(RealmId(1), 7, shards, BrokerPolicy::default());
    let mut tokens = Vec::with_capacity(USERS * TOKENS_PER_USER);
    for _ in 0..TOKENS_PER_USER {
        for &u in &users {
            tokens.push(plane.login(&db, u, None).unwrap());
        }
    }
    (plane, tokens)
}

fn bench_batch_validate(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!("(fan-out parallelism on this machine: {cores} core(s))");
    let mut g = c.benchmark_group("fedauth/shard_batch_validate");
    for shards in [1usize, 2, 4, 8] {
        let (plane, tokens) = populated(shards);
        g.throughput(Throughput::Elements(tokens.len() as u64));
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                let verdicts = plane.validate_batch(black_box(&tokens));
                assert!(verdicts.iter().all(Result::is_ok));
                black_box(verdicts)
            })
        });
    }
    g.finish();

    // The always-fanned-out path, regardless of core count (on a 1-core
    // box this shows the chunking overhead the dispatcher avoids).
    let mut g = c.benchmark_group("fedauth/shard_batch_fanout");
    for shards in [2usize, 8] {
        let (plane, tokens) = populated(shards);
        g.throughput(Throughput::Elements(tokens.len() as u64));
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| black_box(plane.validate_batch_fanout(black_box(&tokens))))
        });
    }
    g.finish();
}

fn bench_single_op_routing(c: &mut Criterion) {
    // The per-op path must stay O(1): the uid-hash route adds a few
    // nanoseconds at most over the single broker.
    let mut g = c.benchmark_group("fedauth/shard_single_validate");
    for shards in [1usize, 8] {
        let (plane, tokens) = populated(shards);
        let t = tokens[tokens.len() / 2];
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| black_box(plane.validate_token(black_box(&t))).unwrap())
        });
    }
    g.finish();
}

fn bench_concurrent_login_paths(c: &mut Criterion) {
    // The per-shard-locking win: the old path serializes every login on
    // the plane-wide write lock; the shared path takes the plane lock for
    // *reading* and lets logins landing on different shards run in
    // parallel on their own shard locks. Same decisions (property-tested);
    // different wall-clock under concurrency.
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!("(concurrent-login parallelism on this machine: {cores} core(s))");
    let mut db = UserDb::new();
    let users: Vec<Uid> = (0..256)
        .map(|i| db.create_user(&format!("c{i}")).unwrap())
        .collect();
    let mut g = c.benchmark_group("fedauth/concurrent_login");
    g.throughput(Throughput::Elements(users.len() as u64));

    let plane = shared_broker(ShardedBroker::new(
        RealmId(1),
        7,
        8,
        BrokerPolicy::default(),
    ));
    g.bench_function("plane_write_lock", |b| {
        b.iter(|| {
            let minted: Vec<bool> = users
                .par_iter()
                .map(|&u| plane.write().login(&db, u, None).is_ok())
                .collect();
            assert!(minted.iter().all(|ok| *ok));
            black_box(minted)
        })
    });
    // Fresh plane so both paths start from comparable table sizes.
    let plane = shared_broker(ShardedBroker::new(
        RealmId(1),
        7,
        8,
        BrokerPolicy::default(),
    ));
    g.bench_function("per_shard_shared", |b| {
        b.iter(|| {
            let minted: Vec<bool> = users
                .par_iter()
                .map(|&u| {
                    plane
                        .read()
                        .try_login_shared(&db, u, None)
                        .expect("sharded plane supports the shared path")
                        .is_ok()
                })
                .collect();
            assert!(minted.iter().all(|ok| *ok));
            black_box(minted)
        })
    });
    g.finish();
}

fn bench_many_sessions_per_user(c: &mut Criterion) {
    // The many-sessions-per-user shape: one principal holding hundreds of
    // concurrent tokens (portal tabs + sbatch tokens). `validate_serial`
    // must stay a map hit — flat across session counts — now that the
    // session table is serial-keyed instead of a linearly-scanned Vec.
    use eus_fedauth::CredentialBroker;
    let mut g = c.benchmark_group("fedauth/many_sessions_validate");
    for sessions in [1usize, 64, 1024] {
        let mut db = UserDb::new();
        let alice = db.create_user("alice").unwrap();
        let mut broker = CredentialBroker::new(RealmId(1), 11, BrokerPolicy::default());
        let tokens: Vec<SignedToken> = (0..sessions)
            .map(|_| broker.login(&db, alice, None).unwrap())
            .collect();
        // The *oldest* serial is the old implementation's worst case (full
        // reverse scan); for the index it is just another key.
        let oldest = tokens[0].serial;
        g.bench_with_input(BenchmarkId::new("sessions", sessions), &sessions, |b, _| {
            b.iter(|| {
                broker
                    .validate_serial(black_box(alice), black_box(oldest))
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_batch_validate,
    bench_single_op_routing,
    bench_concurrent_login_paths,
    bench_many_sessions_per_user
);
criterion_main!(benches);
