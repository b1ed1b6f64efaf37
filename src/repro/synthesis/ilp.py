"""Construction of the synthesis ILP (§III-D).

Variables
    ``s_A`` for every candidate atom (selected or not), ``c_t`` for
    every attacker-indistinguishable test case (forced to 1 when some
    selected atom distinguishes ``t`` — a false positive).

Objective
    ``min Σ_t c_t``.

Constraints
    ``Σ_{A ∈ distinguishing(t)} s_A ≥ 1`` per attacker-distinguishable
    test case ``t``; ``s_A ≤ c_t`` per indistinguishable ``t`` and
    ``A ∈ distinguishing(t)``.

:func:`build_ilp_instance` applies four loss-free reductions:

1. Atoms that distinguish no attacker-distinguishable test case are
   never selected by an optimal solution (they cover nothing and can
   only add false positives), so only atoms occurring in some coverage
   constraint become ILP variables.
2. Attacker-distinguishable test cases with identical (restricted)
   distinguishing sets yield identical constraints and are deduplicated.
3. Indistinguishable test cases with identical candidate intersections
   are merged into one ``c_t`` with an integer weight.
4. Dominated atoms are removed (:func:`eliminate_dominated_atoms`;
   skipped with ``reduce_dominated=False``).  This preserves the
   optimum value but not the set of optimal selections.

:func:`reduce_to_fixpoint` goes further for the exact search in
:mod:`repro.synthesis.solvers`: it splits off forced atoms and drops
superset coverage constraints, and it preserves every
inclusion-minimal cover, not only the optimum value.  Its output is a
separate residual instance; :func:`build_ilp_instance` does not apply
it.

Test cases whose restricted distinguishing set is *empty* cannot be
covered by any contract from the (restricted) template; they are
excluded from the constraints and reported as ``uncoverable`` (they
count as false negatives in the sensitivity metrics, which is how the
restricted templates of Fig. 2/3 lose sensitivity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.evaluation.results import EvaluationDataset


@dataclass
class IlpInstance:
    """A reduced synthesis problem ready for a solver backend."""

    #: Sorted candidate atom ids (the ``s_A`` variables).
    candidate_atom_ids: Tuple[int, ...]
    #: Deduplicated coverage constraints over candidate atoms.
    cover_sets: Tuple[FrozenSet[int], ...]
    #: Deduplicated false-positive sets with multiplicities: selecting
    #: any atom of ``fp_sets[i][0]`` costs ``fp_sets[i][1]``.
    fp_sets: Tuple[Tuple[FrozenSet[int], int], ...]
    #: Attacker-distinguishable cases with no candidate atom at all.
    uncoverable_test_ids: Tuple[int, ...]
    #: Test ids behind each cover set (diagnostics).
    cover_test_ids: Tuple[Tuple[int, ...], ...] = field(default=())
    #: Test ids behind each fp set (diagnostics / FP reporting).
    fp_test_ids: Tuple[Tuple[int, ...], ...] = field(default=())

    @property
    def atom_count(self) -> int:
        return len(self.candidate_atom_ids)

    @property
    def total_fp_weight(self) -> int:
        return sum(weight for _atoms, weight in self.fp_sets)

    def false_positive_weight(self, selection: Iterable[int]) -> int:
        """Objective value of ``selection``: the number of
        indistinguishable test cases it distinguishes."""
        selected = frozenset(selection)
        return sum(
            weight
            for atoms, weight in self.fp_sets
            if not atoms.isdisjoint(selected)
        )

    def covers_all(self, selection: Iterable[int]) -> bool:
        selected = frozenset(selection)
        return all(not atoms.isdisjoint(selected) for atoms in self.cover_sets)

    def atom_masks(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per-atom bitmasks ``(cover_mask, fp_mask)``: bit ``i`` of
        ``cover_mask[a]`` is set when atom ``a`` is in ``cover_sets[i]``,
        bit ``i`` of ``fp_mask[a]`` when it is in ``fp_sets[i]``."""
        cover_mask: Dict[int, int] = {atom_id: 0 for atom_id in self.candidate_atom_ids}
        for position, atoms in enumerate(self.cover_sets):
            bit = 1 << position
            for atom_id in atoms:
                cover_mask[atom_id] |= bit
        fp_mask: Dict[int, int] = {atom_id: 0 for atom_id in self.candidate_atom_ids}
        for position, (atoms, _weight) in enumerate(self.fp_sets):
            bit = 1 << position
            for atom_id in atoms:
                fp_mask[atom_id] |= bit
        return cover_mask, fp_mask

    def false_positive_test_ids(self, selection: Iterable[int]) -> List[int]:
        selected = frozenset(selection)
        ids: List[int] = []
        for (atoms, _weight), test_ids in zip(self.fp_sets, self.fp_test_ids):
            if not atoms.isdisjoint(selected):
                ids.extend(test_ids)
        return sorted(ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IlpInstance(%d atoms, %d cover sets, %d fp sets)" % (
            self.atom_count,
            len(self.cover_sets),
            len(self.fp_sets),
        )


def build_ilp_instance(
    dataset: EvaluationDataset,
    allowed_atom_ids: Optional[Iterable[int]] = None,
    reduce_dominated: bool = True,
) -> IlpInstance:
    """Reduce ``dataset`` to an :class:`IlpInstance`.

    ``allowed_atom_ids`` restricts the template (e.g. to the IL+RL+ML
    base families for the Fig. 2 comparison); ``None`` allows every
    atom mentioned by the dataset.  ``reduce_dominated`` additionally
    removes atoms that are dominated by another candidate (see
    :func:`eliminate_dominated_atoms`) — loss-free for the objective.
    """
    allowed = None if allowed_atom_ids is None else frozenset(allowed_atom_ids)

    cover_groups: Dict[FrozenSet[int], List[int]] = {}
    uncoverable: List[int] = []
    for result in dataset.distinguishable:
        atoms = result.distinguishing_atom_ids
        if allowed is not None:
            atoms = atoms & allowed
        if not atoms:
            uncoverable.append(result.test_id)
            continue
        cover_groups.setdefault(atoms, []).append(result.test_id)

    candidates = frozenset().union(*cover_groups) if cover_groups else frozenset()

    fp_groups: Dict[FrozenSet[int], List[int]] = {}
    for result in dataset.indistinguishable:
        atoms = result.distinguishing_atom_ids & candidates
        if atoms:
            fp_groups.setdefault(atoms, []).append(result.test_id)

    cover_items = sorted(cover_groups.items(), key=lambda item: sorted(item[0]))
    fp_items = sorted(fp_groups.items(), key=lambda item: sorted(item[0]))
    instance = IlpInstance(
        candidate_atom_ids=tuple(sorted(candidates)),
        cover_sets=tuple(atoms for atoms, _ids in cover_items),
        fp_sets=tuple((atoms, len(ids)) for atoms, ids in fp_items),
        uncoverable_test_ids=tuple(sorted(uncoverable)),
        cover_test_ids=tuple(tuple(ids) for _atoms, ids in cover_items),
        fp_test_ids=tuple(tuple(ids) for _atoms, ids in fp_items),
    )
    if reduce_dominated:
        instance = eliminate_dominated_atoms(instance)
    return instance


def eliminate_dominated_atoms(instance: IlpInstance) -> IlpInstance:
    """Remove candidate atoms dominated by another candidate.

    Atom ``a`` dominates ``b`` when ``a`` covers every coverage
    constraint ``b`` covers while triggering a subset of ``b``'s
    false-positive sets.  Any optimal selection containing ``b`` stays
    optimal after substituting ``a``, so dropping ``b`` preserves the
    optimum (ties are broken toward the smaller atom id, keeping the
    reduction deterministic and irreflexive).  This typically shrinks
    the candidate set by an order of magnitude because sibling atoms
    (e.g. ``RAW_RS1_1`` .. ``RAW_RS1_4``) often have identical
    signatures on a finite test set.
    """
    atom_ids = instance.candidate_atom_ids
    cover_mask, fp_mask = instance.atom_masks()

    # Deduplicate identical signatures first (keep the smallest id).
    by_signature: Dict[Tuple[int, int], int] = {}
    for atom_id in atom_ids:
        signature = (cover_mask[atom_id], fp_mask[atom_id])
        if signature not in by_signature or atom_id < by_signature[signature]:
            by_signature[signature] = atom_id
    survivors = sorted(by_signature.values())

    # Pairwise strict dominance among the distinct signatures.
    dominated = set()
    for b in survivors:
        cover_b, fp_b = cover_mask[b], fp_mask[b]
        for a in survivors:
            if a == b or a in dominated:
                continue
            if cover_b & ~cover_mask[a] == 0 and fp_mask[a] & ~fp_b == 0:
                dominated.add(b)
                break
    kept = frozenset(atom_id for atom_id in survivors if atom_id not in dominated)

    new_cover = tuple(atoms & kept for atoms in instance.cover_sets)
    if any(not atoms for atoms in new_cover):  # pragma: no cover - invariant
        raise AssertionError("dominance reduction emptied a coverage constraint")
    fp_pairs = [
        (atoms & kept, weight, test_ids)
        for (atoms, weight), test_ids in zip(instance.fp_sets, instance.fp_test_ids)
    ]
    fp_pairs = [(atoms, weight, ids) for atoms, weight, ids in fp_pairs if atoms]
    return IlpInstance(
        candidate_atom_ids=tuple(sorted(kept)),
        cover_sets=new_cover,
        fp_sets=tuple((atoms, weight) for atoms, weight, _ids in fp_pairs),
        uncoverable_test_ids=instance.uncoverable_test_ids,
        cover_test_ids=instance.cover_test_ids,
        fp_test_ids=tuple(ids for _atoms, _weight, ids in fp_pairs),
    )


def reduce_to_fixpoint(instance: IlpInstance) -> Tuple[FrozenSet[int], IlpInstance]:
    """Split ``instance`` into its forced atoms and a residual instance.

    The inclusion-minimal covers of ``instance`` are exactly the sets
    ``forced | m`` for the inclusion-minimal covers ``m`` of the
    residual, and the false-positive weight of ``forced | m`` is the
    weight the forced atoms pay plus the residual weight of ``m``.  So
    the reduction preserves every minimal cover and its rank, not only
    the optimum value.  Three rules, each with that property:

    1. An atom that is some coverage constraint's only member is in
       every cover.  It is forced; the constraints it covers and the FP
       sets it pays for leave the residual.
    2. A coverage constraint that is a superset of another one is
       satisfied by every selection that satisfies the smaller one, so
       it is dropped (duplicates keep one copy).
    3. Atoms that no remaining constraint contains are in no minimal
       cover, so they leave the residual and every FP set.

    No rule changes the atoms of a constraint it keeps, so no rule can
    enable another one: one pass of each reaches the fixpoint.  FP sets
    left identical are merged with summed weights.  Dominance
    elimination and zero-cost shortcuts are deliberately absent: they
    keep the optimum value but drop optimal minimal covers.
    """
    forced = frozenset(
        atom_id for atoms in instance.cover_sets if len(atoms) == 1 for atom_id in atoms
    )
    remaining = sorted(
        {atoms for atoms in instance.cover_sets if atoms.isdisjoint(forced)},
        key=lambda atoms: (len(atoms), sorted(atoms)),
    )
    cover_sets: List[FrozenSet[int]] = []
    for atoms in remaining:
        if not any(smaller <= atoms for smaller in cover_sets):
            cover_sets.append(atoms)
    candidates = frozenset().union(*cover_sets)

    fp_weights: Dict[FrozenSet[int], int] = {}
    for atoms, weight in instance.fp_sets:
        if atoms.isdisjoint(forced):
            atoms = atoms & candidates
            if atoms:
                fp_weights[atoms] = fp_weights.get(atoms, 0) + weight
    residual = IlpInstance(
        candidate_atom_ids=tuple(sorted(candidates)),
        cover_sets=tuple(sorted(cover_sets, key=sorted)),
        fp_sets=tuple(sorted(fp_weights.items(), key=lambda item: sorted(item[0]))),
        uncoverable_test_ids=(),
    )
    return forced, residual
