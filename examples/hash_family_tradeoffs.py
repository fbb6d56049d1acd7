#!/usr/bin/env python3
"""Choosing a hash family: speed, invertibility and structural hazards.

Reproduces the Fig. 7 story in miniature and demonstrates two findings
from this reproduction (``docs/algorithms.md``, "Known deviations"):

1. DictionaryAttack pays namespace-wide hashing, so expensive families
   (MD5) hurt it an order of magnitude more than the BloomSampleTree.
2. The weakly invertible Simple family ``(a*x + b) % p % m`` enables
   HashInvert — but its affine structure interacts pathologically with
   *contiguous* id runs (clustered sets), corrupting the intersection
   estimator.  Murmur3 has no such artifact.

Run:  python examples/hash_family_tradeoffs.py
"""

import argparse
import time

from repro.analysis.plots import ascii_bar_chart
from repro import (
    BloomFilter,
    BloomSampleTree,
    BSTSampler,
    DictionaryAttack,
    HashInvert,
    clustered_query_set,
    create_family,
    plan_tree,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--namespace", type=int, default=50_000)
    parser.add_argument("--set-size", type=int, default=500)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    M, n = args.namespace, args.set_size
    params = plan_tree(M, n, 0.9)
    secret = clustered_query_set(M, n, rng=args.seed)
    truth = set(secret.tolist())

    da_times: dict[str, float] = {}
    print(f"{'family':>8}  {'BST ms':>8}  {'DA ms':>8}  {'speedup':>7}  "
          f"{'BST accuracy':>12}")
    for name in ("simple", "murmur3", "md5"):
        family = create_family(name, params.k, params.m, namespace_size=M,
                               seed=args.seed)
        tree = BloomSampleTree.build(M, params.depth, family)
        query = BloomFilter.from_items(secret, family)

        sampler = BSTSampler(tree, rng=args.seed)
        start = time.perf_counter()
        hits = produced = 0
        for __ in range(args.rounds):
            result = sampler.sample(query)
            if result.value is not None:
                produced += 1
                hits += result.value in truth
        bst_ms = (time.perf_counter() - start) / args.rounds * 1e3
        accuracy = hits / produced if produced else 0.0

        attack = DictionaryAttack(M, rng=args.seed)
        da_rounds = max(1, args.rounds // 10)
        start = time.perf_counter()
        for __ in range(da_rounds):
            attack.sample(query)
        da_ms = (time.perf_counter() - start) / da_rounds * 1e3

        da_times[name] = da_ms
        print(f"{name:>8}  {bst_ms:>8.2f}  {da_ms:>8.2f}  "
              f"{da_ms / bst_ms:>6.1f}x  {accuracy:>12.2f}")

    print()
    print(ascii_bar_chart(da_times, unit=" ms",
                          title="DictionaryAttack per-sample cost by family "
                                "(the Fig. 7 story):"))

    print("\nNote the 'simple' row's accuracy: affine hashes on clustered")
    print("(near-contiguous) ids corrupt the intersection estimator — use")
    print("murmur3 unless you need HashInvert's weak inversion:")

    family = create_family("simple", params.k, params.m, namespace_size=M,
                           seed=args.seed)
    query = BloomFilter.from_items(secret, family)
    invert = HashInvert(M, rng=args.seed)
    start = time.perf_counter()
    elements, ops = invert.reconstruct(query)
    elapsed = (time.perf_counter() - start) * 1e3
    print(f"\nHashInvert reconstruction (simple family only): "
          f"{elements.size} elements in {elapsed:.1f} ms, "
          f"{ops.memberships} membership queries, "
          f"{ops.hash_inversions} inversions — exact, no tree needed")


if __name__ == "__main__":
    main()
