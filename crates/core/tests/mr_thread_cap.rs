//! The MapReduce engine runs `ℓ` logical reducers on at most the machine's
//! threads. Capping the threads changes scheduling only: `mr_kcenter` at
//! `ℓ = 64` must return the same centers, radius bits, coreset sizes and
//! memory report whether its engine is built inside a 1-thread pool or on
//! the machine's threads (`RAYON_NUM_THREADS` or the hardware count).

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig, MrKCenterResult};
use kcenter_metric::{Euclidean, Point};

/// About 20 k points in 3 dimensions from a fixed xorshift stream,
/// clustered around 16 seeds so GMM has structure to find.
fn points() -> Vec<Point> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..20_000)
        .map(|i| {
            let cluster = (i % 16) as f64;
            Point::new(vec![
                cluster * 10.0 + next(),
                (cluster * 7.0) % 13.0 + next(),
                next() * 2.0,
            ])
        })
        .collect()
}

fn run(points: &[Point]) -> MrKCenterResult<Point> {
    let config = MrKCenterConfig {
        k: 10,
        ell: 64,
        coreset: CoresetSpec::Multiplier { mu: 2 },
        seed: 5,
    };
    mr_kcenter(points, &Euclidean, &config).expect("valid config")
}

fn center_bits(result: &MrKCenterResult<Point>) -> Vec<Vec<u64>> {
    result
        .clustering
        .centers
        .iter()
        .map(|c| c.coords().iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn mr_kcenter_is_identical_on_one_thread_and_the_machines_threads() {
    let points = points();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let sequential = single.install(|| run(&points));
    let machine = run(&points);

    assert_eq!(center_bits(&sequential), center_bits(&machine));
    assert_eq!(
        sequential.clustering.radius.to_bits(),
        machine.clustering.radius.to_bits()
    );
    assert_eq!(sequential.coreset_sizes, machine.coreset_sizes);
    assert_eq!(sequential.coreset_sizes.len(), 64);
    assert_eq!(sequential.union_size, machine.union_size);
    assert_eq!(sequential.memory.rounds, machine.memory.rounds);
    assert_eq!(machine.memory.rounds[0].reducers, 64);
    assert_eq!(machine.memory.rounds[1].reducers, 1);
}
