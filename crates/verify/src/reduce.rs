//! Persistent-set partial-order reduction and symmetry-quotient state
//! canonicalization, driven by `emc-analyze`'s static facts.
//!
//! ## Partial-order reduction (stubborn sets)
//!
//! The explorer's transitions are firings of *agents*: one agent per
//! gate, plus one per declared [`EnvPart`] of the environment. Two
//! agents that cannot enable, disable, hazard, or race each other may
//! be fired in either order with the same outcome, so exploring both
//! orders is waste. Per state the engine computes a **stubborn set**
//! `T` seeded from one enabled agent:
//!
//! - an *enabled* agent in `T` pulls in every agent it may interfere
//!   with (keeping interfering pairs together is what lets the
//!   on-the-fly `SI001`/`DR00x` checks see every race);
//! - a *disabled* agent in `T` pulls in its necessary enabling set
//!   (the writers of the nets its enabledness reads).
//!
//! Only `enabled ∩ T` is fired. Every enabled seed is tried and the
//! smallest result wins (deterministically — seeds ascend by agent
//! index). The explorer's BFS ignoring-proviso re-expands the deferred
//! transitions whenever the chosen set reaches no new state, so no
//! transition is postponed forever.
//!
//! The gate–gate half of the interference relation is
//! [`emc_analyze::may_interfere_matrix`]; the environment half comes
//! from the caller-declared [`EnvFootprint`]. **No footprint, no
//! reduction** — an opaque environment closure may read anything, so
//! commuting around it would be unsound. Runtime guards fall back to
//! full expansion in any state where the declaration is violated (an
//! action on an undeclared net, or a declared-stateless part moving
//! the control byte).
//!
//! ## Symmetry reduction
//!
//! [`emc_analyze::detect_orbits`] proves sets of connected components
//! pairwise isomorphic. After validating that the *dynamic* side is
//! symmetric too — equal initial overrides slot-by-slot, environment
//! parts assigned whole to single members and structurally identical
//! across members, nothing stateful or quiescence-gated inside a
//! group — the explorer canonicalizes every state by sorting each
//! group's member sub-states, exploring the quotient graph instead.
//! [`orbit_commutation_check`] independently validates the permutation
//! argument on the unreduced graph.

use std::collections::HashMap;

use emc_analyze::{detect_orbits, discover_rail_pairs, may_interfere_matrix, Interference, Orbits};
use emc_netlist::{GateId, NetId, Netlist};

use crate::explore::{Explorer, State, Transition};

/// One independent piece of an environment's behaviour, as declared by
/// the circuit author: the nets whose values its actions depend on, the
/// nets it drives, and whether it couples to global state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvPart {
    /// Nets this part's enabledness/actions read.
    pub reads: Vec<NetId>,
    /// Nets this part drives (each must be an `Input` gate's output,
    /// like every [`crate::EnvAction`](crate::explore::EnvAction)).
    pub drives: Vec<NetId>,
    /// `true` when the part consults
    /// [`EnvView::quiescent`](crate::explore::EnvView::quiescent) — it
    /// then depends on every gate's excitation and disables reduction
    /// around itself.
    pub uses_quiescence: bool,
    /// `true` when the part reads or writes the environment control
    /// byte.
    pub stateful: bool,
    /// Behavioural discriminator: two parts with equal `tag` and
    /// structurally corresponding nets are promised to behave
    /// identically under that renaming (used by symmetry validation).
    pub tag: u64,
}

/// The declared dependency structure of an
/// [`Environment`](crate::explore::Environment) closure, decomposed
/// into independent [`EnvPart`]s. The declaration is a promise: every
/// action the closure emits must be attributable to a part driving
/// that net, reading only that part's `reads` (plus the control byte
/// if `stateful`, plus quiescence if `uses_quiescence`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvFootprint {
    /// The declared parts.
    pub parts: Vec<EnvPart>,
}

impl EnvFootprint {
    /// A footprint from parts.
    pub fn new(parts: Vec<EnvPart>) -> Self {
        Self { parts }
    }

    /// Appends another footprint's parts (for composed environments).
    pub fn extend(&mut self, other: EnvFootprint) {
        self.parts.extend(other.parts);
    }
}

const WORD: usize = 64;

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / WORD] >> (i % WORD) & 1 == 1
}

/// Sets bit `i`; returns `true` if it was previously clear.
#[inline]
fn bit_set(words: &mut [u64], i: usize) -> bool {
    let w = &mut words[i / WORD];
    let mask = 1u64 << (i % WORD);
    let fresh = *w & mask == 0;
    *w |= mask;
    fresh
}

/// One validated orbit group: `members[m][k]` is the `(net, gate)` slot
/// at aligned position `k` of member `m`; `members[0]` belongs to the
/// representative.
pub(crate) struct ValidGroup {
    pub(crate) members: Vec<Vec<(NetId, GateId)>>,
}

/// Per-exploration scratch for [`ReductionEngine`] queries, so the BFS
/// inner loop stays allocation-free.
pub(crate) struct ReduceScratch {
    t_set: Vec<u64>,
    best: Vec<u64>,
    enabled: Vec<u64>,
    enabled_list: Vec<usize>,
    work: Vec<usize>,
    env_parts: Vec<usize>,
    /// Filled by [`ReductionEngine::select`]: one flag per transition
    /// in `internal ++ env`, `true` = fire in the reduced pass.
    pub(crate) mask: Vec<bool>,
    keys: Vec<Vec<u64>>,
    order: Vec<usize>,
}

/// The per-circuit reduction engine: static interference + validated
/// symmetry, built once before exploration.
pub(crate) struct ReductionEngine {
    gates: usize,
    parts: Vec<EnvPart>,
    inter: Interference,
    /// Per part: bitset over gate agents it may interfere with.
    part_vs_gate: Vec<Vec<u64>>,
    /// Per part: single-word bitset (≤ 64 parts) over parts.
    part_vs_part: Vec<u64>,
    /// Per net: mask of parts driving it.
    parts_driving: Vec<u64>,
    pub(crate) groups: Vec<ValidGroup>,
}

impl ReductionEngine {
    /// Builds the engine, or `None` when reduction is unavailable: an
    /// empty or oversized netlist (closure cost would dominate), more
    /// than 64 declared parts, or a declared net outside the netlist.
    pub(crate) fn build(
        netlist: &Netlist,
        initial: &[(NetId, bool)],
        footprint: &EnvFootprint,
    ) -> Option<Self> {
        let gates = netlist.gate_count();
        let nets = netlist.net_count();
        if gates == 0 || gates > 10_000 || footprint.parts.len() > WORD {
            return None;
        }
        for p in &footprint.parts {
            if p.reads.iter().chain(&p.drives).any(|n| n.index() >= nets) {
                return None;
            }
        }
        let pairs = discover_rail_pairs(netlist);
        let mut partner: Vec<Option<NetId>> = vec![None; nets];
        for p in &pairs {
            partner[p.t.index()] = Some(p.f);
            partner[p.f.index()] = Some(p.t);
        }
        let inter = may_interfere_matrix(netlist, &pairs);
        let orbits = detect_orbits(netlist, &pairs);
        let groups = validate_groups(&orbits, initial, &footprint.parts);

        let parts = footprint.parts.clone();
        let npart = parts.len();
        let mut parts_driving = vec![0u64; nets];
        let mut parts_reading = vec![0u64; nets];
        for (pi, p) in parts.iter().enumerate() {
            for &n in &p.drives {
                parts_driving[n.index()] |= 1 << pi;
            }
            for &n in &p.reads {
                parts_reading[n.index()] |= 1 << pi;
            }
        }

        let gate_words = gates.div_ceil(WORD);
        let all_parts = if npart == WORD {
            u64::MAX
        } else {
            (1u64 << npart) - 1
        };
        let mut part_vs_gate = Vec::with_capacity(npart);
        let mut part_vs_part = vec![0u64; npart];
        for (pi, p) in parts.iter().enumerate() {
            let mut set = vec![0u64; gate_words];
            let mut pp = 1u64 << pi; // reflexive
            if p.uses_quiescence {
                // Quiescence observes every gate's excitation: the part
                // interferes with everything.
                set.fill(u64::MAX);
                if !gates.is_multiple_of(WORD) {
                    set[gate_words - 1] = (1u64 << (gates % WORD)) - 1;
                }
                pp = all_parts;
            } else {
                // Gates writing what the part reads; parts co-writing.
                for &n in &p.reads {
                    if let Some(d) = netlist.driver_of(n) {
                        bit_set(&mut set, d.index());
                    }
                    pp |= parts_driving[n.index()];
                }
                for &n in &p.drives {
                    // Gates reading what the part drives, and — via the
                    // common-reader rule — the drivers of those gates'
                    // sibling inputs (a part firing can hazard a gate
                    // excited by a sibling input's change).
                    for &h in netlist.fanout(n) {
                        bit_set(&mut set, h.index());
                        for &m in netlist.gate_ref(h).inputs() {
                            if let Some(d) = netlist.driver_of(m) {
                                bit_set(&mut set, d.index());
                            }
                            pp |= parts_driving[m.index()];
                        }
                    }
                    // Rail coupling: the partner rail's writers (DR001
                    // is a joint property of both rails).
                    if let Some(r) = partner[n.index()] {
                        if let Some(d) = netlist.driver_of(r) {
                            bit_set(&mut set, d.index());
                        }
                        pp |= parts_driving[r.index()];
                    }
                    // Parts reading or co-driving this net.
                    pp |= parts_reading[n.index()] | parts_driving[n.index()];
                }
                if p.stateful {
                    for (qi, q) in parts.iter().enumerate() {
                        if q.stateful {
                            pp |= 1 << qi;
                        }
                    }
                }
                // A quiescence-gated part interferes with everything,
                // symmetrically.
                for (qi, q) in parts.iter().enumerate() {
                    if q.uses_quiescence {
                        pp |= 1 << qi;
                    }
                }
            }
            part_vs_gate.push(set);
            part_vs_part[pi] = pp;
        }
        // Close part-vs-part under symmetry (the construction is nearly
        // symmetric already; this guarantees it).
        for a in 0..npart {
            for b in 0..npart {
                if part_vs_part[a] >> b & 1 == 1 {
                    part_vs_part[b] |= 1 << a;
                }
            }
        }

        Some(Self {
            gates,
            parts,
            inter,
            part_vs_gate,
            part_vs_part,
            parts_driving,
            groups,
        })
    }

    /// `true` when at least one validated symmetry group survives.
    pub(crate) fn has_symmetry(&self) -> bool {
        !self.groups.is_empty()
    }

    pub(crate) fn scratch(&self) -> ReduceScratch {
        let agents = self.gates + self.parts.len();
        let words = agents.div_ceil(WORD);
        ReduceScratch {
            t_set: vec![0; words],
            best: vec![0; words],
            enabled: vec![0; words],
            enabled_list: Vec::new(),
            work: Vec::new(),
            env_parts: Vec::new(),
            mask: Vec::new(),
            keys: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Chooses the transitions to fire from `s`, filling `sc.mask` (one
    /// flag per transition in `internal ++ env`, `true` = chosen).
    /// Returns `false` — full expansion, mask unspecified — when no
    /// useful reduction exists or a footprint guard trips.
    pub(crate) fn select(
        &self,
        netlist: &Netlist,
        sc: &mut ReduceScratch,
        s: &State,
        internal: &[Transition],
        env: &[Transition],
    ) -> bool {
        // Attribute each env transition to exactly one declared part;
        // any undeclared behaviour voids the declaration for this state.
        sc.env_parts.clear();
        for t in env {
            let mask = self.parts_driving[t.net.index()];
            if mask.count_ones() != 1 {
                return false;
            }
            let p = mask.trailing_zeros() as usize;
            if t.env_next != s.env && !self.parts[p].stateful {
                return false;
            }
            sc.env_parts.push(p);
        }

        sc.enabled.fill(0);
        sc.enabled_list.clear();
        for t in internal {
            let a = t.gate.expect("internal transitions carry a gate").index();
            if bit_set(&mut sc.enabled, a) {
                sc.enabled_list.push(a);
            }
        }
        for &p in &sc.env_parts {
            let a = self.gates + p;
            if bit_set(&mut sc.enabled, a) {
                sc.enabled_list.push(a);
            }
        }
        let enabled_count = sc.enabled_list.len();
        if enabled_count <= 1 {
            return false;
        }

        // Try every enabled seed (ascending, deterministic); keep the
        // smallest |enabled ∩ T|.
        sc.enabled_list.sort_unstable();
        let mut best_score = usize::MAX;
        for i in 0..sc.enabled_list.len() {
            let seed = sc.enabled_list[i];
            let score = self.closure(netlist, sc, seed);
            if score < best_score {
                best_score = score;
                sc.best.copy_from_slice(&sc.t_set);
                if score == 1 {
                    break;
                }
            }
        }
        if best_score >= enabled_count {
            return false;
        }

        sc.mask.clear();
        for t in internal {
            let a = t.gate.expect("internal transitions carry a gate").index();
            sc.mask.push(bit_get(&sc.best, a));
        }
        for &p in &sc.env_parts {
            sc.mask.push(bit_get(&sc.best, self.gates + p));
        }
        true
    }

    /// Stubborn closure from `seed` into `sc.t_set`; returns
    /// `|enabled ∩ T|`.
    fn closure(&self, netlist: &Netlist, sc: &mut ReduceScratch, seed: usize) -> usize {
        sc.t_set.fill(0);
        sc.work.clear();
        bit_set(&mut sc.t_set, seed);
        sc.work.push(seed);
        let mut score = 0usize;
        while let Some(a) = sc.work.pop() {
            let enabled = bit_get(&sc.enabled, a);
            if enabled {
                score += 1;
            }
            if a < self.gates {
                if enabled {
                    // Pull in every agent the gate may interfere with.
                    let row = self.inter.row(netlist.gate_id(a));
                    for (w, &bits) in row.iter().enumerate() {
                        let mut add = bits & !sc.t_set[w];
                        // Mask tail bits of the word straddling the end
                        // of the gate range (they alias part agents).
                        if (w + 1) * WORD > self.gates {
                            let valid = self.gates - w * WORD;
                            if valid < WORD {
                                add &= (1u64 << valid) - 1;
                            }
                        }
                        while add != 0 {
                            let b = w * WORD + add.trailing_zeros() as usize;
                            add &= add - 1;
                            bit_set(&mut sc.t_set, b);
                            sc.work.push(b);
                        }
                    }
                    for (pi, pv) in self.part_vs_gate.iter().enumerate() {
                        if bit_get(pv, a) && bit_set(&mut sc.t_set, self.gates + pi) {
                            sc.work.push(self.gates + pi);
                        }
                    }
                } else {
                    // Necessary enabling set: writers of the nets this
                    // gate's excitation reads (its inputs; the output
                    // is written only by the gate itself).
                    let g = netlist.gate_ref(netlist.gate_id(a));
                    if g.kind().is_source() {
                        continue; // never fires; nothing enables it
                    }
                    for &n in g.inputs() {
                        if let Some(d) = netlist.driver_of(n) {
                            if d.index() != a && bit_set(&mut sc.t_set, d.index()) {
                                sc.work.push(d.index());
                            }
                        }
                        let mut pm = self.parts_driving[n.index()];
                        while pm != 0 {
                            let p = pm.trailing_zeros() as usize;
                            pm &= pm - 1;
                            if bit_set(&mut sc.t_set, self.gates + p) {
                                sc.work.push(self.gates + p);
                            }
                        }
                    }
                }
            } else {
                let pi = a - self.gates;
                let p = &self.parts[pi];
                if enabled {
                    let pv = &self.part_vs_gate[pi];
                    for (w, &bits) in pv.iter().enumerate() {
                        let mut add = bits & !sc.t_set[w];
                        if (w + 1) * WORD > self.gates {
                            let valid = self.gates - w * WORD;
                            if valid < WORD {
                                add &= (1u64 << valid) - 1;
                            }
                        }
                        while add != 0 {
                            let b = w * WORD + add.trailing_zeros() as usize;
                            add &= add - 1;
                            bit_set(&mut sc.t_set, b);
                            sc.work.push(b);
                        }
                    }
                    let mut pm = self.part_vs_part[pi];
                    while pm != 0 {
                        let q = pm.trailing_zeros() as usize;
                        pm &= pm - 1;
                        if bit_set(&mut sc.t_set, self.gates + q) {
                            sc.work.push(self.gates + q);
                        }
                    }
                } else if p.uses_quiescence {
                    // Enabledness depends on everything.
                    for b in 0..self.gates + self.parts.len() {
                        if bit_set(&mut sc.t_set, b) {
                            sc.work.push(b);
                        }
                    }
                } else {
                    // NES of a disabled part: writers of what it reads
                    // or drives (its actions restate levels, so a drive
                    // target at the wrong level blocks it).
                    for &n in p.reads.iter().chain(&p.drives) {
                        if let Some(d) = netlist.driver_of(n) {
                            if bit_set(&mut sc.t_set, d.index()) {
                                sc.work.push(d.index());
                            }
                        }
                        let mut pm = self.parts_driving[n.index()];
                        while pm != 0 {
                            let q = pm.trailing_zeros() as usize;
                            pm &= pm - 1;
                            if bit_set(&mut sc.t_set, self.gates + q) {
                                sc.work.push(self.gates + q);
                            }
                        }
                    }
                    if p.stateful {
                        for (qi, q) in self.parts.iter().enumerate() {
                            if q.stateful && bit_set(&mut sc.t_set, self.gates + qi) {
                                sc.work.push(self.gates + qi);
                            }
                        }
                    }
                }
            }
        }
        score
    }

    /// Rewrites `s` to the canonical representative of its symmetry
    /// orbit: within each validated group, member sub-states are
    /// sorted. Returns `true` if anything moved.
    pub(crate) fn canonicalize(&self, sc: &mut ReduceScratch, s: &mut State) -> bool {
        let mut moved = false;
        for group in &self.groups {
            let m = group.members.len();
            let k = group.members[0].len();
            let key_words = (3 * k).div_ceil(WORD);
            sc.keys.resize_with(m, Vec::new);
            for (mi, slots) in group.members.iter().enumerate() {
                let key = &mut sc.keys[mi];
                key.clear();
                key.resize(key_words, 0);
                let mut cursor = 0usize;
                let push = |key: &mut Vec<u64>, cursor: &mut usize, b: bool| {
                    if b {
                        key[*cursor / WORD] |= 1 << (*cursor % WORD);
                    }
                    *cursor += 1;
                };
                for &(net, gate) in slots {
                    push(key, &mut cursor, s.value(net));
                    let p = s.pending(gate);
                    push(key, &mut cursor, p.is_some());
                    push(key, &mut cursor, p == Some(true));
                }
            }
            sc.order.clear();
            sc.order.extend(0..m);
            sc.order.sort_by(|&a, &b| sc.keys[a].cmp(&sc.keys[b]));
            if sc.order.iter().enumerate().all(|(i, &o)| i == o) {
                continue;
            }
            moved = true;
            // Member j takes the key of the j-th smallest member.
            for (j, &src) in sc.order.iter().enumerate() {
                let slots = &group.members[j];
                let key = &sc.keys[src];
                let mut cursor = 0usize;
                let pull = |cursor: &mut usize| {
                    let b = key[*cursor / WORD] >> (*cursor % WORD) & 1 == 1;
                    *cursor += 1;
                    b
                };
                for &(net, gate) in slots {
                    let v = pull(&mut cursor);
                    let present = pull(&mut cursor);
                    let target = pull(&mut cursor);
                    s.set_value(net, v);
                    s.set_pending(gate, if present { Some(target) } else { None });
                }
            }
        }
        moved
    }
}

/// Validates orbit groups against the dynamic side (initial overrides
/// and environment parts); only fully symmetric groups survive.
fn validate_groups(
    orbits: &Orbits,
    initial: &[(NetId, bool)],
    parts: &[EnvPart],
) -> Vec<ValidGroup> {
    let mut init: HashMap<NetId, bool> = HashMap::new();
    for &(n, v) in initial {
        init.insert(n, v); // later overrides win, like the explorer
    }
    let init_of = |n: NetId| init.get(&n).copied().unwrap_or(false);

    let mut out = Vec::new();
    'group: for group in &orbits.groups {
        let rep = &group.members[0];
        let k = rep.nets.len();
        // Initial overrides must agree slot-by-slot (constants already
        // agree by kind symmetry).
        for member in &group.members[1..] {
            for pos in 0..k {
                if init_of(rep.nets[pos]) != init_of(member.nets[pos]) {
                    continue 'group;
                }
            }
        }
        // Net → member over the whole group.
        let mut member_of: HashMap<NetId, usize> = HashMap::new();
        for (mi, member) in group.members.iter().enumerate() {
            for &n in &member.nets {
                member_of.insert(n, mi);
            }
        }
        // Assign env parts to members; reject parts that straddle
        // members or sit half inside the group.
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); group.members.len()];
        for (pi, p) in parts.iter().enumerate() {
            let mut member: Option<usize> = None;
            let mut inside = 0usize;
            let total = p.reads.len() + p.drives.len();
            for &n in p.reads.iter().chain(&p.drives) {
                if let Some(&mi) = member_of.get(&n) {
                    inside += 1;
                    match member {
                        None => member = Some(mi),
                        Some(prev) if prev == mi => {}
                        Some(_) => continue 'group,
                    }
                }
            }
            if inside == 0 {
                continue; // disjoint from the group: fine
            }
            if inside != total {
                continue 'group; // half in, half out
            }
            if p.stateful || p.uses_quiescence {
                continue 'group; // global coupling breaks the symmetry
            }
            assigned[member.expect("inside > 0 implies a member")].push(pi);
        }
        // Part correspondence: each member's assigned parts must match
        // the representative's under the positional net map.
        let rep_parts = &assigned[0];
        for (mi, member_parts) in assigned.iter().enumerate().skip(1) {
            if member_parts.len() != rep_parts.len() {
                continue 'group;
            }
            let to_rep: HashMap<NetId, NetId> = group.members[mi]
                .nets
                .iter()
                .zip(&rep.nets)
                .map(|(&m, &r)| (m, r))
                .collect();
            let map_nets = |nets: &[NetId]| -> Option<Vec<NetId>> {
                nets.iter().map(|n| to_rep.get(n).copied()).collect()
            };
            let mut used = vec![false; rep_parts.len()];
            for &qi in member_parts {
                let q = &parts[qi];
                let (Some(reads), Some(drives)) = (map_nets(&q.reads), map_nets(&q.drives)) else {
                    continue 'group;
                };
                let matched = rep_parts.iter().enumerate().position(|(slot, &ri)| {
                    let r = &parts[ri];
                    !used[slot] && r.tag == q.tag && r.reads == reads && r.drives == drives
                });
                match matched {
                    Some(slot) => used[slot] = true,
                    None => continue 'group,
                }
            }
        }
        out.push(ValidGroup {
            members: group
                .members
                .iter()
                .map(|m| {
                    m.nets
                        .iter()
                        .copied()
                        .zip(m.gates.iter().copied())
                        .collect()
                })
                .collect(),
        });
    }
    out
}

/// Walks the **unreduced** reachable graph of `circuit` (up to `cap`
/// states) and checks, for every validated orbit group and every
/// state, that swapping the representative with each other member
/// commutes with the transition relation: the permuted state's enabled
/// transitions are the permuted originals, and firing corresponding
/// transitions reaches permuted-corresponding successors. Returns the
/// number of states checked (0 when the circuit has no validated
/// symmetry to check).
pub fn orbit_commutation_check(circuit: &crate::Circuit<'_>, cap: usize) -> Result<usize, String> {
    let footprint = circuit.footprint.clone().unwrap_or_default();
    let Some(engine) = ReductionEngine::build(&circuit.netlist, &circuit.initial, &footprint)
    else {
        return Ok(0);
    };
    if engine.groups.is_empty() {
        return Ok(0);
    }
    let ex = Explorer::new(&circuit.netlist, &circuit.env, &circuit.initial, cap);

    use std::collections::VecDeque;
    let mut seen: std::collections::HashSet<State> = std::collections::HashSet::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    let initial = ex.initial_state();
    seen.insert(initial.clone());
    queue.push_back(initial);
    let mut checked = 0usize;
    while let Some(s) = queue.pop_front() {
        checked += 1;
        let internal = ex.internal_enabled(&s);
        let env = ex.env_enabled(&s, internal.is_empty());
        for group in &engine.groups {
            for other in 1..group.members.len() {
                check_swap(&ex, group, other, &s, &internal, &env)?;
            }
        }
        for t in internal.iter().chain(env.iter()) {
            let (next, _) = ex.apply(&s, t);
            if !seen.contains(&next) && seen.len() < cap {
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Ok(checked)
}

/// Checks one transposition (member 0 ↔ member `other`) at one state.
fn check_swap(
    ex: &Explorer<'_>,
    group: &ValidGroup,
    other: usize,
    s: &State,
    internal: &[Transition],
    env: &[Transition],
) -> Result<(), String> {
    let a = &group.members[0];
    let b = &group.members[other];
    let mut net_map: HashMap<NetId, NetId> = HashMap::new();
    let mut gate_map: HashMap<GateId, GateId> = HashMap::new();
    for (&(na, ga), &(nb, gb)) in a.iter().zip(b.iter()) {
        net_map.insert(na, nb);
        net_map.insert(nb, na);
        gate_map.insert(ga, gb);
        gate_map.insert(gb, ga);
    }
    let pi_state = |s: &State| -> State {
        let mut out = s.clone();
        for (&(na, ga), &(nb, gb)) in a.iter().zip(b.iter()) {
            out.set_value(na, s.value(nb));
            out.set_value(nb, s.value(na));
            out.set_pending(ga, s.pending(gb));
            out.set_pending(gb, s.pending(ga));
        }
        out
    };
    let pi_transition = |t: &Transition| -> Transition {
        Transition {
            gate: t.gate.map(|g| gate_map.get(&g).copied().unwrap_or(g)),
            net: net_map.get(&t.net).copied().unwrap_or(t.net),
            value: t.value,
            env_next: t.env_next,
        }
    };

    let ps = pi_state(s);
    let p_internal = ex.internal_enabled(&ps);
    let p_env = ex.env_enabled(&ps, p_internal.is_empty());
    // Enabled sets must correspond under the permutation.
    let mut expect: Vec<_> = internal
        .iter()
        .chain(env.iter())
        .map(pi_transition)
        .collect();
    let mut got: Vec<_> = p_internal.iter().chain(p_env.iter()).cloned().collect();
    let key = |t: &Transition| {
        (
            t.gate.map(|g| g.index()),
            t.net.index(),
            t.value,
            t.env_next,
        )
    };
    expect.sort_by_key(key);
    got.sort_by_key(key);
    if expect != got {
        return Err(format!(
            "orbit swap does not commute with enabledness: expected {} transitions, got {}",
            expect.len(),
            got.len()
        ));
    }
    // Successors must correspond: π(apply(s, t)) == apply(π(s), π(t)).
    for t in internal.iter().chain(env.iter()) {
        let (n1, o1) = ex.apply(s, t);
        let (n2, o2) = ex.apply(&ps, &pi_transition(t));
        if pi_state(&n1) != n2 {
            return Err(format!(
                "orbit swap does not commute with apply at the transition on net {}",
                t.net
            ));
        }
        let mut m1: Vec<usize> = o1
            .iter()
            .map(|g| gate_map.get(g).copied().unwrap_or(*g).index())
            .collect();
        let mut m2: Vec<usize> = o2.iter().map(|g| g.index()).collect();
        m1.sort_unstable();
        m2.sort_unstable();
        if m1 != m2 {
            return Err("orbit swap does not commute with overrun detection".to_owned());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{EnvAction, Environment};
    use crate::{Circuit, Verifier};
    use emc_netlist::{GateKind, Netlist};

    /// Two independent two-buffer chains, each closed by its own
    /// completion-aware part — symmetric, hazard-free, and reducible.
    fn twin_chains() -> Circuit<'static> {
        let mut nl = Netlist::new();
        let mut ends = Vec::new();
        for i in 0..2 {
            let a = nl.input(&format!("r{i}.a"));
            let b = nl.gate(GateKind::Buf, &[a], &format!("r{i}.b"));
            let c = nl.gate(GateKind::Buf, &[b], &format!("r{i}.c"));
            nl.mark_output(c);
            ends.push((a, c));
        }
        let moved = ends.clone();
        let env = Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                let mut acts = Vec::new();
                for &(a, c) in &moved {
                    if v.value(a) == v.value(c) {
                        acts.push(EnvAction {
                            net: a,
                            value: !v.value(a),
                            next: 0,
                        });
                    }
                }
                acts
            }),
        };
        let parts = ends
            .iter()
            .map(|&(a, c)| EnvPart {
                reads: vec![a, c],
                drives: vec![a],
                uses_quiescence: false,
                stateful: false,
                tag: 7,
            })
            .collect();
        Circuit::new("twin", nl, env).with_footprint(EnvFootprint::new(parts))
    }

    fn verdict(c: &Circuit<'_>, reduce: bool) -> (Vec<&'static str>, bool, bool, usize) {
        let r = Verifier::new().with_reduction(reduce).verify(c);
        (r.distinct_rules(), r.is_clean(), r.exhaustive, r.states)
    }

    #[test]
    fn reduced_run_matches_full_and_shrinks_states() {
        let (rules_f, clean_f, exh_f, states_f) = verdict(&twin_chains(), false);
        let (rules_r, clean_r, exh_r, states_r) = verdict(&twin_chains(), true);
        assert_eq!(rules_f, rules_r);
        assert_eq!(clean_f, clean_r);
        assert_eq!(exh_f, exh_r);
        assert!(
            states_r < states_f,
            "expected a strict reduction: {states_r} vs {states_f}"
        );
    }

    #[test]
    fn engine_finds_symmetry_and_parts() {
        let c = twin_chains();
        let fp = c.footprint.clone().unwrap();
        let engine = ReductionEngine::build(&c.netlist, &c.initial, &fp).unwrap();
        assert!(engine.has_symmetry());
        assert_eq!(engine.groups.len(), 1);
        assert_eq!(engine.groups[0].members.len(), 2);
        assert_eq!(engine.parts.len(), 2);
    }

    #[test]
    fn commutation_check_accepts_twin_chains() {
        let checked = orbit_commutation_check(&twin_chains(), 10_000).expect("must commute");
        assert!(checked > 0, "symmetry present, states must be checked");
    }

    #[test]
    fn asymmetric_initial_override_drops_the_group() {
        let mut c = twin_chains();
        let b0 = c.netlist.find_net("r0.b").unwrap();
        c.initial.push((b0, true));
        let fp = c.footprint.clone().unwrap();
        let engine = ReductionEngine::build(&c.netlist, &c.initial, &fp).unwrap();
        assert!(!engine.has_symmetry(), "override breaks the orbit");
        // Still sound: POR alone must agree with the full run.
        let (rules_f, clean_f, exh_f, states_f) = verdict(&c, false);
        let (rules_r, clean_r, exh_r, states_r) = verdict(&c, true);
        assert_eq!((rules_f, clean_f, exh_f), (rules_r, clean_r, exh_r));
        assert!(states_r <= states_f);
    }

    #[test]
    fn undeclared_env_net_forces_full_expansion() {
        // Footprint declares only one of the two driven inputs: every
        // state with an action on the undeclared net must fall back to
        // full expansion, keeping the result identical to the full run.
        let mut c = twin_chains();
        let fp = c.footprint.take().unwrap();
        let c = c.with_footprint(EnvFootprint::new(vec![fp.parts[0].clone()]));
        let (rules_f, clean_f, exh_f, states_f) = verdict(&c, false);
        let (rules_r, clean_r, exh_r, states_r) = verdict(&c, true);
        assert_eq!((rules_f, clean_f, exh_f), (rules_r, clean_r, exh_r));
        assert_eq!(
            states_r, states_f,
            "guard must disable reduction wholesale here"
        );
    }

    #[test]
    fn hazard_is_still_detected_under_reduction() {
        // y = a AND (NOT a) driven free-running: the SI001 hazard must
        // survive reduction (interfering pairs are kept together).
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.gate(GateKind::Inv, &[a], "na");
        let y = nl.gate(GateKind::And, &[a, na], "y");
        nl.mark_output(y);
        let env = Environment {
            initial: 0,
            step: Box::new(move |_, v| {
                vec![EnvAction {
                    net: a,
                    value: !v.value(a),
                    next: 0,
                }]
            }),
        };
        let c = Circuit::new("glitch", nl, env).with_footprint(EnvFootprint::new(vec![EnvPart {
            reads: vec![a],
            drives: vec![a],
            uses_quiescence: false,
            stateful: false,
            tag: 1,
        }]));
        let (rules_f, ..) = verdict(&c, false);
        let (rules_r, ..) = verdict(&c, true);
        assert!(rules_r.contains(&"SI001"), "{rules_r:?}");
        assert_eq!(rules_f, rules_r);
    }

    #[test]
    fn canonicalize_sorts_member_substates() {
        let c = twin_chains();
        let fp = c.footprint.clone().unwrap();
        let engine = ReductionEngine::build(&c.netlist, &c.initial, &fp).unwrap();
        let mut sc = engine.scratch();
        let ex = Explorer::new(&c.netlist, &c.env, &c.initial, 10);
        let mut s = ex.initial_state();
        let r0a = c.netlist.find_net("r0.a").unwrap();
        let r1a = c.netlist.find_net("r1.a").unwrap();
        s.set_value(r0a, true);
        let mut t = s.clone();
        // An asserted chain 0 sorts after the idle chain 1, so the
        // member sub-states must swap...
        assert!(engine.canonicalize(&mut sc, &mut t));
        assert!(t.value(r0a) != t.value(r1a), "swap preserves the multiset");
        // ...and the symmetric image must canonicalize to the same
        // representative.
        let mut u = ex.initial_state();
        u.set_value(r1a, true);
        engine.canonicalize(&mut sc, &mut u);
        assert_eq!(t, u);
        // Idempotent.
        let before = t.clone();
        assert!(!engine.canonicalize(&mut sc, &mut t));
        assert_eq!(before, t);
    }
}
