//! Property-based tests of the join algorithms: every algorithm, on any
//! input, produces exactly the reference multiset of matches.

use mem_joins::hash::{CacheParams, RadixPartitioned};
use mem_joins::parallel::GRAIN;
use mem_joins::{
    merge_join, nested_loops_join, Algorithm, HashJoinState, JoinCollector, JoinPredicate,
    SortedRun,
};
use proptest::prelude::*;
use relation::{relation_checksum, Checksum, GenSpec, MatchPair, Relation, Tuple};

fn relation_strategy() -> impl Strategy<Value = Relation> {
    // Mix of shapes: empty, small domains (heavy duplicates), wide domains.
    (0usize..300, 1u32..50_000, any::<u64>()).prop_map(|(tuples, domain, seed)| {
        GenSpec {
            tuples,
            distribution: relation::KeyDistribution::Uniform { domain },
            seed,
        }
        .generate()
    })
}

fn reference(r: &Relation, s: &Relation, pred: &JoinPredicate) -> (u64, Checksum) {
    let mut c = JoinCollector::aggregating();
    nested_loops_join(r, s, pred, 1, &mut c);
    (c.count(), c.checksum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The radix hash join equals brute force on arbitrary inputs.
    #[test]
    fn hash_join_equals_reference(
        r in relation_strategy(),
        s in relation_strategy(),
        threads in 1usize..5,
    ) {
        let alg = Algorithm::PartitionedHash(CacheParams::tiny_for_tests());
        let bits = alg.ring_radix_bits(s.len());
        let state = alg.setup_stationary(&s, bits, threads);
        let frag = alg.prepare_fragment(&r, bits, threads);
        let mut c = JoinCollector::aggregating();
        alg.join(&state, &frag, &JoinPredicate::Equi, threads, &mut c);
        let (count, checksum) = reference(&r, &s, &JoinPredicate::Equi);
        prop_assert_eq!(c.count(), count);
        prop_assert_eq!(c.checksum(), checksum);
    }

    /// The sort-merge join equals brute force for any band half-width.
    #[test]
    fn merge_join_equals_reference(
        r in relation_strategy(),
        s in relation_strategy(),
        delta in 0u32..10,
        threads in 1usize..5,
    ) {
        let pred = JoinPredicate::band(delta);
        let mut c = JoinCollector::aggregating();
        merge_join(&SortedRun::sort(&r, 2), &SortedRun::sort(&s, 2), delta, threads, &mut c);
        let (count, checksum) = reference(&r, &s, &pred);
        prop_assert_eq!(c.count(), count);
        prop_assert_eq!(c.checksum(), checksum);
    }

    /// Radix partitioning conserves the multiset for any bit/pass combo.
    #[test]
    fn radix_partitioning_conserves(
        rel in relation_strategy(),
        bits in 0u32..10,
        per_pass in 1u32..6,
    ) {
        let params = CacheParams {
            max_bits_per_pass: per_pass,
            ..CacheParams::default()
        };
        let part = RadixPartitioned::new(&rel, bits, &params);
        prop_assert_eq!(part.partitions().len(), 1 << bits);
        prop_assert_eq!(part.len(), rel.len());
        prop_assert_eq!(
            relation_checksum(&part.flatten()),
            relation_checksum(&rel)
        );
    }

    /// The three partitioning constructors — borrowed scatter, owned
    /// scatter, and the parallel scatter — produce byte-identical
    /// partitions. The borrowed path used to seed itself with a
    /// whole-relation clone; this pins the fix to the old semantics
    /// (and `from_owned(rel.clone())` *is* the old clone-seeded path).
    #[test]
    fn partitioning_constructors_agree(
        rel in relation_strategy(),
        bits in 0u32..10,
        per_pass in 1u32..6,
        threads in 1usize..6,
    ) {
        let params = CacheParams {
            max_bits_per_pass: per_pass,
            ..CacheParams::default()
        };
        let borrowed = RadixPartitioned::new(&rel, bits, &params);
        let owned = RadixPartitioned::from_owned(rel.clone(), bits, &params);
        let parallel = RadixPartitioned::new_parallel(&rel, bits, &params, threads);
        prop_assert_eq!(borrowed.partitions(), owned.partitions());
        prop_assert_eq!(borrowed.partitions(), parallel.partitions());
    }

    /// The owned table build (which moves the partition's columns) probes
    /// identically to the borrowed build (which copies them): same
    /// matches in the same order for present and absent keys, same chain
    /// topology.
    #[test]
    fn owned_table_build_probes_like_borrowed(
        partition in relation_strategy(),
        bits in 0u32..8,
        absent in prop::collection::vec(any::<u32>(), 0..20),
    ) {
        use mem_joins::hash::ChainedTable;
        let reference = ChainedTable::build_with_shift(&partition, bits);
        let owned = ChainedTable::build_owned(partition.clone(), bits);
        prop_assert_eq!(owned.len(), reference.len());
        prop_assert_eq!(owned.longest_chain(), reference.longest_chain());
        for &key in partition.keys().iter().chain(absent.iter()) {
            let expect: Vec<_> = reference.probe(key).collect();
            let got: Vec<_> = owned.probe(key).collect();
            prop_assert_eq!(got, expect, "probe({}) diverged", key);
        }
    }

    /// Sorting is stable with respect to the multiset for any thread count.
    #[test]
    fn parallel_sort_conserves(rel in relation_strategy(), threads in 1usize..6) {
        let run = SortedRun::sort(&rel, threads);
        prop_assert!(run.as_relation().is_sorted_by_key());
        prop_assert_eq!(
            relation_checksum(run.as_relation()),
            relation_checksum(&rel)
        );
    }

    /// Probe results never depend on the thread count.
    #[test]
    fn thread_invariance(
        r in relation_strategy(),
        s in relation_strategy(),
    ) {
        let alg = Algorithm::PartitionedHash(CacheParams::tiny_for_tests());
        let bits = alg.ring_radix_bits(s.len());
        let state = alg.setup_stationary(&s, bits, 1);
        let frag = alg.prepare_fragment(&r, bits, 1);
        let mut results = Vec::new();
        for threads in [1usize, 3, 7] {
            let mut c = JoinCollector::aggregating();
            alg.join(&state, &frag, &JoinPredicate::Equi, threads, &mut c);
            results.push((c.count(), c.checksum()));
        }
        prop_assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    /// Collector merging is associative on counts and checksums.
    #[test]
    fn collector_merge_associates(
        keys in prop::collection::vec(any::<u32>(), 0..120),
        cut1 in 0usize..120,
        cut2 in 0usize..120,
    ) {
        use relation::{MatchPair, Tuple};
        let matches: Vec<MatchPair> = keys
            .iter()
            .map(|&k| MatchPair::new(Tuple::new(k, 1), Tuple::new(k, 2)))
            .collect();
        let (a, b) = (cut1.min(matches.len()), cut2.min(matches.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let fill = |range: &[MatchPair]| {
            let mut c = JoinCollector::aggregating();
            for &m in range {
                c.push(m);
            }
            c
        };
        let mut left_assoc = fill(&matches[..lo]);
        left_assoc.merge(fill(&matches[lo..hi]));
        left_assoc.merge(fill(&matches[hi..]));
        let mut right_assoc = fill(&matches[..lo]);
        let mut tail = fill(&matches[lo..hi]);
        tail.merge(fill(&matches[hi..]));
        right_assoc.merge(tail);
        prop_assert_eq!(left_assoc.count(), right_assoc.count());
        prop_assert_eq!(left_assoc.checksum(), right_assoc.checksum());
    }
}

/// Input sizes just under and just over the fork grain.
fn around_grain() -> impl Strategy<Value = usize> {
    (0usize..128).prop_map(|d| GRAIN - 64 + d)
}

fn sorted_matches(c: JoinCollector) -> Vec<MatchPair> {
    let mut m = c.into_matches();
    m.sort_unstable();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every forking kernel gives the same result for 1, 2 and 4 threads
    /// on inputs either side of the grain, where the kernels switch
    /// between running inline and forking onto the pool: the hash probe
    /// and the merge give the same match multiset, the parallel scatter
    /// the same partitions, and the sort the same tuple multiset.
    #[test]
    fn kernels_agree_across_threads_at_the_grain(
        work in around_grain(),
        s_len in 1usize..256,
        domain in 1u32..50_000,
        seed in any::<u64>(),
    ) {
        let gen = |tuples, seed| {
            GenSpec {
                tuples,
                distribution: relation::KeyDistribution::Uniform { domain },
                seed,
            }
            .generate()
        };
        let params = CacheParams::tiny_for_tests();
        let s = gen(s_len, seed);
        // The probe touches |R| tuples, the merge |R| + |S|.
        let r_probe = gen(work, seed ^ 1);
        let r_merge = gen(work - s_len, seed ^ 2);
        let state = HashJoinState::build_with_bits(&s, 4, &params);
        let frag = state.partition_probe(&r_probe, &params);
        let s_run = SortedRun::sort(&s, 1);
        let sequential_scatter = RadixPartitioned::new(&r_probe, 4, &params);

        let mut results = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut probe = JoinCollector::materializing();
            state.probe_partitioned(&frag, threads, &mut probe);
            let mut merge = JoinCollector::materializing();
            merge_join(&SortedRun::sort(&r_merge, threads), &s_run, 0, threads, &mut merge);
            let sorted = SortedRun::sort(&r_probe, threads);
            prop_assert!(sorted.as_relation().is_sorted_by_key());
            let mut tuples: Vec<Tuple> = sorted.as_relation().iter().collect();
            tuples.sort_unstable();
            let scatter = RadixPartitioned::new_parallel(&r_probe, 4, &params, threads);
            prop_assert_eq!(scatter.partitions(), sequential_scatter.partitions());
            results.push((sorted_matches(probe), sorted_matches(merge), tuples));
        }
        prop_assert!(results.windows(2).all(|w| w[0] == w[1]));
    }
}
