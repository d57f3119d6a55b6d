#!/usr/bin/env python3
"""Association rule mining on a small basket corpus.

Builds a corpus where one item genuinely raises the chance of an outcome
and shows how left support lets rules with a rare consequent surface,
while lift and chi-squared grade the association strength.
"""

import os
import random
import tempfile

from adrrefine import (
    AssociationRule,
    BasketDatabase,
    Item,
    ItemKind,
    MiningConstraints,
    mine_rules,
    write_rules_csv,
)

rng = random.Random(7)

FLU = Item(ItemKind.READ, "F01..")
RASH = Item(ItemKind.READ, "R02..")
DRUG_A = Item(ItemKind.BNF, "5.1.0.0")
DRUG_B = Item(ItemKind.BNF, "2.3.0.0")
NOISE = [Item(ItemKind.READ, f"Z{i:02d}..") for i in range(8)]

# 2000 patients: drug A is common; the rash mostly follows drug A.
baskets = []
for j in range(2000):
    basket = {it for it in NOISE if rng.random() < 0.15}
    if rng.random() < 0.30:
        basket.add(DRUG_A)
        if rng.random() < 0.08:
            basket.add(RASH)  # rash in 8% of drug-A patients
    elif rng.random() < 0.01:
        basket.add(RASH)  # rare otherwise
    if rng.random() < 0.25:
        basket.add(DRUG_B)
    if rng.random() < 0.40:
        basket.add(FLU)
    baskets.append((f"p{j}", frozenset(basket)))

db = BasketDatabase(baskets)
print(f"corpus: {db.m} baskets, {len(db.items)} distinct items")
print(f"rash support: {db.count([RASH]) / db.m:.4f}  (too rare for a plain support floor)")

# A support floor of 1% would hide every rash rule; the left-support floor
# constrains the antecedent only, so rare consequents stay reachable.
constraints = MiningConstraints(min_left_support=0.01, min_confidence=0.01, max_antecedent=2)
rules = mine_rules(db, consequent=RASH, constraints=constraints)
print(f"\nmined {len(rules)} rules with consequent {RASH.token}:")
print(f"{'antecedent':28} {'leftSupp':>9} {'conf':>7} {'lift':>6} {'chi2':>8}")
for r in sorted(rules, key=lambda r: -r.lift)[:8]:
    name = "{" + ", ".join(r.antecedent_tokens) + "}"
    print(f"{name:28} {r.left_support:9.4f} {r.confidence:7.3f} {r.lift:6.2f} {r.chi_squared:8.1f}")

top = max(rules, key=lambda r: r.lift)
assert DRUG_A in top.antecedent, "the planted association should rank first by lift"
print(f"\nhighest lift antecedent contains {DRUG_A.token}, as planted")

out = os.path.join(tempfile.gettempdir(), "demo_rules.csv")
write_rules_csv(rules, out)
print(f"rules written to {out}")
