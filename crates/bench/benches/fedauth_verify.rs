//! Microbenchmarks of the credential-verification hot path: every ssh, job
//! submission, and portal fetch performs one of these checks, so they must
//! stay O(1) and nanosecond-to-microsecond scale regardless of revocation
//! list size or session count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eus_fedauth::{BrokerPolicy, CredSerial, CredentialBroker, CredentialPlane, RealmId};
use eus_simos::UserDb;
use std::hint::black_box;

fn setup(revoked: u64) -> (CredentialBroker, eus_fedauth::SignedToken, eus_simos::Uid) {
    let mut db = UserDb::new();
    let alice = db.create_user("alice").unwrap();
    let mut broker = CredentialBroker::new(RealmId(1), 7, BrokerPolicy::default());
    let token = broker.login(&db, alice, None).unwrap();
    for i in 0..revoked {
        broker.revoke_serial(CredSerial(1_000_000 + i));
    }
    (broker, token, alice)
}

fn bench_token_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("fedauth/validate_token");
    for revoked in [0u64, 1_000, 100_000] {
        let (broker, token, _) = setup(revoked);
        g.bench_with_input(BenchmarkId::new("revlist", revoked), &revoked, |b, _| {
            b.iter(|| black_box(broker.validate_token(black_box(&token))).unwrap())
        });
    }
    g.finish();
}

fn bench_cert_authorize(c: &mut Criterion) {
    let mut g = c.benchmark_group("fedauth/authorize_ssh");
    let (broker, _, alice) = setup(10_000);
    g.bench_function("live_cert", |b| {
        b.iter(|| black_box(broker.authorize_ssh(black_box(alice))).unwrap())
    });
    let (broker, token, alice) = setup(10_000);
    g.bench_function("submit_gate", |b| {
        b.iter(|| black_box(broker.authorize_submit(black_box(alice))).unwrap())
    });
    // Rejection must be as cheap as acceptance (it runs on attack paths).
    let mut revoked_broker = broker;
    revoked_broker.revoke_serial(token.serial);
    g.bench_function("revoked_reject", |b| {
        b.iter(|| black_box(revoked_broker.validate_token(black_box(&token))).unwrap_err())
    });
    g.finish();
}

criterion_group!(benches, bench_token_verify, bench_cert_authorize);
criterion_main!(benches);
