#!/usr/bin/env python3
"""Quickstart: analyse one selfish-mining configuration end to end.

Builds the multi-fork selfish-mining MDP for the paper's headline parameter
point (p = 0.3, gamma = 0.5, d = 2, f = 1, l = 4), runs the fully automated
formal analysis (Algorithm 1) and prints the epsilon-tight lower bound on the
optimal expected relative revenue together with the honest and single-tree
baselines.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AnalysisConfig,
    AttackParams,
    ProtocolParams,
    SelfishMiningAnalyzer,
    honest_errev,
    single_tree_errev,
)


def main() -> None:
    protocol = ProtocolParams(p=0.3, gamma=0.5)
    attack = AttackParams(depth=2, forks=1, max_fork_length=4)
    config = AnalysisConfig(epsilon=1e-3)

    print(f"protocol: p={protocol.p}, gamma={protocol.gamma}")
    print(f"attack:   d={attack.depth}, f={attack.forks}, l={attack.max_fork_length}")
    print(f"analysis: epsilon={config.epsilon}")
    print()

    analyzer = SelfishMiningAnalyzer(protocol, attack, config)
    result = analyzer.run()

    print(f"MDP size: {result.num_states} states, {result.num_transitions} transitions")
    print(f"build time: {result.build_seconds:.2f}s, analysis time: {result.analysis_seconds:.2f}s")
    print(f"binary search iterations: {result.formal.num_iterations}")
    print()
    print(f"ERRev lower bound (Algorithm 1):   {result.errev_lower_bound:.4f}")
    print(f"ERRev achieved by the strategy:    {result.strategy_errev:.4f}")
    print(f"honest mining baseline:            {honest_errev(protocol):.4f}")
    print(f"single-tree baseline (f=5, l=4):   {single_tree_errev(protocol):.4f}")
    print()
    print(f"chain quality under the attack:    {result.chain_quality:.4f}")
    print(f"advantage over honest mining:      {result.advantage_over_honest:+.4f}")


if __name__ == "__main__":
    main()
