//! A compact CDCL SAT solver.
//!
//! Features: two-watched-literal propagation, first-UIP clause learning
//! with non-chronological backtracking, VSIDS-style variable activities,
//! geometric restarts, phase saving, and incremental solving under
//! assumptions. Sized for the CNF instances this workspace produces
//! (equivalence miters and resubstitution feasibility queries over a few
//! thousand gates), not for competition inputs.

use std::fmt;

use alsrac_rt::budget::{Budget, CancelToken};

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Index into solver arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> SatLit {
        SatLit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> SatLit {
        SatLit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given sign (`true` = negated).
    #[inline]
    pub fn lit(self, negated: bool) -> SatLit {
        SatLit(self.0 << 1 | negated as u32)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable plus a sign.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SatLit(u32);

impl SatLit {
    /// The variable of this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if the literal is negated.
    #[inline]
    pub fn is_negated(self) -> bool {
        self.0 & 1 != 0
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for SatLit {
    type Output = SatLit;

    #[inline]
    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

impl fmt::Debug for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}v{}",
            if self.is_negated() { "!" } else { "" },
            self.0 >> 1
        )
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (query it with
    /// [`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The attached [`Budget`] ran out (conflict/propagation cap, deadline,
    /// or cancellation) before an answer was found. The solver backtracks
    /// to level 0 and stays fully reusable: learned clauses are kept and
    /// scopes still pop. Only budgeted solvers (see [`Solver::set_budget`])
    /// can return this.
    Unknown,
}

const UNASSIGNED: u8 = 2;

#[derive(Clone)]
struct Clause {
    lits: Vec<SatLit>,
}

/// A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
/// learning, VSIDS-style activities, restarts, phase saving, and
/// incremental solving under assumptions.
pub struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit] = clauses currently watching `lit`.
    watches: Vec<Vec<u32>>,
    /// Assignment per variable: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// Saved phase per variable.
    phase: Vec<u8>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Antecedent clause per variable (u32::MAX = decision/assumption).
    reason: Vec<u32>,
    trail: Vec<SatLit>,
    /// Trail indices where each decision level starts.
    trail_limits: Vec<usize>,
    /// Next trail position to propagate.
    propagate_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    /// Set when an empty clause was added: permanently unsatisfiable.
    dead: bool,
    conflicts: u64,
    /// Selector variables of the currently open assumption scopes
    /// (outermost first). See [`Solver::push_scope`].
    scopes: Vec<Var>,
    /// Resource budget applied per solve call; `None` = unbudgeted (never
    /// answers [`SatResult::Unknown`]).
    budget: Option<Budget>,
    /// Conflicts spent by the most recent solve call.
    last_conflicts: u64,
    /// Trail literals propagated by the most recent solve call.
    last_propagations: u64,
    /// Check the two-watched-literal invariant after every conflict-free
    /// propagation (see `assert_watch_invariant`).
    #[cfg(test)]
    check_watches: bool,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_limits: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            activity_inc: 1.0,
            dead: false,
            conflicts: 0,
            scopes: Vec::new(),
            budget: None,
            last_conflicts: 0,
            last_propagations: 0,
            #[cfg(test)]
            check_watches: false,
        }
    }

    /// Attaches a resource [`Budget`] applied to every subsequent solve
    /// call. A budgeted call that exhausts a SAT cap, passes the deadline,
    /// or observes a tripped cancel token returns [`SatResult::Unknown`]
    /// instead of running on; the caps are *per call* (each solve starts
    /// its counters at zero). An unlimited budget still opts the solver
    /// into fault-injected exhaustion
    /// ([`alsrac_rt::faults::sat_budget_exhausted`]).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = Some(budget);
    }

    /// Removes any attached budget; the solver never answers `Unknown`
    /// again.
    pub fn clear_budget(&mut self) {
        self.budget = None;
    }

    /// Conflicts spent by the most recent solve call. A call that returned
    /// [`SatResult::Unknown`] on the conflict cap reads exactly the cap.
    pub fn last_conflicts(&self) -> u64 {
        self.last_conflicts
    }

    /// Trail literals propagated by the most recent solve call.
    pub fn last_propagations(&self) -> u64 {
        self.last_propagations
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.phase.push(0);
        self.level.push(0);
        self.reason.push(u32::MAX);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    #[inline]
    fn lit_value(&self, lit: SatLit) -> u8 {
        match self.assign[lit.var().index()] {
            UNASSIGNED => UNASSIGNED,
            v => v ^ lit.is_negated() as u8,
        }
    }

    /// Adds a clause; returns `false` if the solver became trivially
    /// unsatisfiable (empty clause, or a unit contradicting a prior unit).
    ///
    /// Calling this after a `Sat` answer backtracks to decision level 0
    /// first, which **invalidates the current model** — read the model (or
    /// save it) before adding blocking clauses.
    ///
    /// While an assumption scope is open (see [`Solver::push_scope`]), the
    /// clause is tagged with the innermost scope's selector and is
    /// retracted when that scope is popped.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        match self.scopes.last() {
            // The selector literal makes the clause vacuous unless the
            // scope's positive selector is assumed; `pop_scope` then
            // retires it for good.
            Some(&selector) => {
                let mut scoped = Vec::with_capacity(lits.len() + 1);
                scoped.extend_from_slice(lits);
                scoped.push(selector.negative());
                self.add_clause_raw(&scoped)
            }
            None => self.add_clause_raw(lits),
        }
    }

    /// [`Solver::add_clause`] without the scope-selector augmentation.
    fn add_clause_raw(&mut self, lits: &[SatLit]) -> bool {
        if !self.trail_limits.is_empty() {
            self.backtrack_to(0);
        }
        if self.dead {
            return false;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        // Normalize: drop duplicates and false literals, detect tautology.
        let mut norm: Vec<SatLit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if self.lit_value(l) == 1 || norm.contains(&!l) {
                return true; // satisfied or tautological
            }
            if self.lit_value(l) == 0 || norm.contains(&l) {
                continue;
            }
            norm.push(l);
        }
        match norm.len() {
            0 => {
                self.dead = true;
                false
            }
            1 => {
                self.enqueue(norm[0], u32::MAX);
                if self.propagate().is_some() {
                    self.dead = true;
                    return false;
                }
                true
            }
            _ => {
                let id = self.clauses.len() as u32;
                self.watches[norm[0].index()].push(id);
                self.watches[norm[1].index()].push(id);
                self.clauses.push(Clause { lits: norm });
                true
            }
        }
    }

    /// Opens an assumption scope: every clause added until the matching
    /// [`Solver::pop_scope`] is active only inside the scope, while learned
    /// clauses that do not depend on scoped clauses persist across scopes.
    /// Returns the new scope depth.
    ///
    /// Implementation: the scope owns a fresh *selector* variable `s`;
    /// scoped clauses get `!s` appended, and every solve implicitly assumes
    /// `s` for all open scopes. Popping asserts `!s`, permanently retiring
    /// the scope's clauses and any learned clause derived from them (such
    /// resolvents necessarily carry `!s`, because `s` never occurs
    /// positively in a clause). This is how repeated miter counting queries
    /// (XOR hash constraints, blocking clauses, comparator bounds) reuse
    /// the CDCL solver's learned state instead of re-solving from scratch.
    ///
    /// Scopes nest; pops must be LIFO.
    pub fn push_scope(&mut self) -> usize {
        self.backtrack_to(0);
        let selector = self.new_var();
        self.scopes.push(selector);
        self.scopes.len()
    }

    /// Closes the innermost assumption scope, retracting every clause added
    /// inside it. Invalidates the current model.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop_scope(&mut self) {
        let selector = self.scopes.pop().expect("pop_scope without push_scope");
        self.backtrack_to(0);
        // `selector` is never assumed again, so clauses carrying its
        // negation are vacuously satisfiable from here on; the unit makes
        // that explicit so propagation skips them outright. Added raw: the
        // retirement of an inner scope must not itself be retractable.
        self.add_clause_raw(&[selector.negative()]);
    }

    /// Number of currently open assumption scopes.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    fn enqueue(&mut self, lit: SatLit, reason: u32) {
        debug_assert_eq!(self.lit_value(lit), UNASSIGNED);
        let v = lit.var().index();
        self.assign[v] = !lit.is_negated() as u8;
        self.phase[v] = self.assign[v];
        self.level[v] = self.trail_limits.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.propagate_head < self.trail.len() {
            let lit = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.last_propagations += 1;
            let false_lit = !lit; // literals watching `!lit` may now be false
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let clause_id = watch_list[i];
                // Ensure false_lit is at position 1.
                let (w0, w1) = {
                    let c = &mut self.clauses[clause_id as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(w1, false_lit);
                if self.lit_value(w0) == 1 {
                    i += 1;
                    continue; // clause already satisfied
                }
                // Look for a replacement watch.
                let replacement = {
                    let c = &self.clauses[clause_id as usize];
                    c.lits[2..]
                        .iter()
                        .position(|&l| self.lit_value(l) != 0)
                        .map(|p| p + 2)
                };
                if let Some(p) = replacement {
                    let c = &mut self.clauses[clause_id as usize];
                    c.lits.swap(1, p);
                    let new_watch = c.lits[1];
                    self.watches[new_watch.index()].push(clause_id);
                    watch_list.swap_remove(i);
                    continue; // do not advance i: swapped-in element next
                }
                // No replacement: unit or conflict on w0.
                match self.lit_value(w0) {
                    UNASSIGNED => {
                        self.enqueue(w0, clause_id);
                        i += 1;
                    }
                    0 => {
                        // Conflict: restore remaining watches and report.
                        self.watches[false_lit.index()] = watch_list;
                        return Some(clause_id);
                    }
                    _ => unreachable!("satisfied case handled above"),
                }
            }
            // No clause re-watches `false_lit` while it is false, so the
            // list we took is the complete new watch list.
            self.watches[false_lit.index()] = watch_list;
        }
        #[cfg(test)]
        if self.check_watches {
            self.assert_watch_invariant();
        }
        None
    }

    /// After a conflict-free propagation, a clause that watches a false
    /// literal must have its other watch true; otherwise propagation has
    /// missed (or will miss) one of its implications.
    #[cfg(test)]
    fn assert_watch_invariant(&self) {
        for (id, clause) in self.clauses.iter().enumerate() {
            let (w0, w1) = (clause.lits[0], clause.lits[1]);
            for (watch, other) in [(w0, w1), (w1, w0)] {
                assert!(
                    self.lit_value(watch) != 0 || self.lit_value(other) == 1,
                    "clause {id} {:?} watches false {watch:?} while {other:?} is not true",
                    clause.lits
                );
            }
        }
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.activity_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: u32) -> (Vec<SatLit>, u32) {
        let current_level = self.trail_limits.len() as u32;
        let mut learned: Vec<SatLit> = Vec::new();
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize; // literals of current level still to resolve
        let mut clause_id = conflict;
        let mut trail_pos = self.trail.len();
        let mut asserting: Option<SatLit> = None;

        loop {
            let skip_first = asserting.is_some() as usize;
            let lits = self.clauses[clause_id as usize].lits.clone();
            for &l in lits.iter().skip(skip_first) {
                let v = l.var();
                if seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                seen[v.index()] = true;
                self.bump(v);
                if self.level[v.index()] == current_level {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if seen[l.var().index()] {
                    asserting = Some(l);
                    break;
                }
            }
            let l = asserting.expect("trail contains a marked literal");
            counter -= 1;
            if counter == 0 {
                learned.insert(0, !l);
                break;
            }
            clause_id = self.reason[l.var().index()];
            debug_assert_ne!(clause_id, u32::MAX, "UIP literal has a reason");
            seen[l.var().index()] = false; // resolved away
        }

        // The second watch must be a literal of the backjump level. A
        // lower-level one stays false after a later backtrack to between
        // the two levels, while the asserting literal comes unassigned:
        // the clause then watches a false literal and misses implications.
        let second = (1..learned.len()).max_by_key(|&i| self.level[learned[i].var().index()]);
        let backtrack = second.map_or(0, |i| {
            learned.swap(1, i);
            self.level[learned[1].var().index()]
        });
        (learned, backtrack)
    }

    fn backtrack_to(&mut self, target: u32) {
        while self.trail_limits.len() as u32 > target {
            let limit = self.trail_limits.pop().expect("non-empty limits");
            while self.trail.len() > limit {
                let l = self.trail.pop().expect("trail entry");
                self.assign[l.var().index()] = UNASSIGNED;
                self.reason[l.var().index()] = u32::MAX;
            }
        }
        self.propagate_head = self.trail.len();
    }

    fn pick_branch(&self) -> Option<SatLit> {
        let mut best: Option<(f64, usize)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == UNASSIGNED {
                let a = self.activity[v];
                if best.is_none_or(|(ba, _)| a > ba) {
                    best = Some((a, v));
                }
            }
        }
        best.map(|(_, v)| Var(v as u32).lit(self.phase[v] == 0))
    }

    /// Solves the formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals. Learned clauses persist
    /// across calls; assumptions do not. Open scopes (see
    /// [`Solver::push_scope`]) contribute their selectors as implicit
    /// assumptions, activating the scoped clauses.
    pub fn solve_with_assumptions(&mut self, assumptions: &[SatLit]) -> SatResult {
        if self.scopes.is_empty() {
            return self.solve_assuming(assumptions);
        }
        let mut all: Vec<SatLit> = self.scopes.iter().map(|s| s.positive()).collect();
        all.extend_from_slice(assumptions);
        self.solve_assuming(&all)
    }

    fn solve_assuming(&mut self, assumptions: &[SatLit]) -> SatResult {
        self.last_conflicts = 0;
        self.last_propagations = 0;
        if self.dead {
            // Permanent unsatisfiability is a hard fact; no budget needed.
            return SatResult::Unsat;
        }
        // Budget state for this call. The Arc-backed clone is cheap and
        // frees `self` for the mutating solve loop below.
        let budget = self.budget.clone();
        let limits = budget.as_ref().map(|b| b.sat).unwrap_or_default();
        let cancel = budget.as_ref().and_then(|b| b.cancel_token().cloned());
        if let Some(b) = &budget {
            if b.interrupted().is_some() || alsrac_rt::faults::sat_budget_exhausted() {
                self.backtrack_to(0);
                return SatResult::Unknown;
            }
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.dead = true;
            return SatResult::Unsat;
        }

        let num_assumptions = assumptions.len() as u32;
        let mut restart_budget = 200u64;
        let mut conflicts_here = 0u64;
        loop {
            // (Re-)establish assumptions after any restart/backjump above
            // the assumption levels.
            while (self.trail_limits.len() as u32) < num_assumptions {
                let a = assumptions[self.trail_limits.len()];
                match self.lit_value(a) {
                    1 => {
                        // Already implied; open an empty level to keep the
                        // level-to-assumption correspondence.
                        self.trail_limits.push(self.trail.len());
                    }
                    0 => return SatResult::Unsat, // conflicting assumptions
                    _ => {
                        self.trail_limits.push(self.trail.len());
                        self.enqueue(a, u32::MAX);
                    }
                }
                if self.propagate().is_some() {
                    return SatResult::Unsat;
                }
            }

            if let Some(conflict) = self.propagate() {
                if budget.is_some() {
                    // Give up *before* processing the conflict that would
                    // pass the cap, so an `Unknown` answer always reads
                    // `last_conflicts() == cap` exactly.
                    let capped = limits
                        .max_conflicts
                        .is_some_and(|cap| self.last_conflicts >= cap);
                    // The cancel flag is one relaxed load — poll it on
                    // every conflict. The deadline needs a clock read, so
                    // poll it every 64 conflicts.
                    let cancelled = cancel.as_ref().is_some_and(CancelToken::is_tripped);
                    let timed_out = self.last_conflicts & 63 == 0
                        && budget.as_ref().is_some_and(|b| b.interrupted().is_some());
                    if capped || cancelled || timed_out {
                        self.backtrack_to(0);
                        return SatResult::Unknown;
                    }
                }
                self.conflicts += 1;
                self.last_conflicts += 1;
                conflicts_here += 1;
                if self.trail_limits.len() as u32 <= num_assumptions {
                    return SatResult::Unsat;
                }
                let (learned, backtrack) = self.analyze(conflict);
                let backtrack = backtrack.max(num_assumptions);
                if backtrack >= self.trail_limits.len() as u32 {
                    // Cannot assert below the conflict level: UNSAT under
                    // the assumptions (all its literals are assumption-level).
                    return SatResult::Unsat;
                }
                self.backtrack_to(backtrack);
                let asserting = learned[0];
                if learned.len() == 1 {
                    if self.lit_value(asserting) == 0 {
                        return SatResult::Unsat;
                    }
                    if self.lit_value(asserting) == UNASSIGNED {
                        self.enqueue(asserting, u32::MAX);
                    }
                } else {
                    let id = self.clauses.len() as u32;
                    self.watches[learned[0].index()].push(id);
                    self.watches[learned[1].index()].push(id);
                    self.clauses.push(Clause { lits: learned });
                    if self.lit_value(asserting) == UNASSIGNED {
                        self.enqueue(asserting, id);
                    }
                }
                self.activity_inc *= 1.05;
                if conflicts_here >= restart_budget {
                    conflicts_here = 0;
                    restart_budget = restart_budget * 3 / 2;
                    self.backtrack_to(num_assumptions);
                }
                continue;
            }

            // The propagation cap is checked at decision boundaries (one
            // propagate call may overshoot it, but never runs unbounded).
            if limits
                .max_propagations
                .is_some_and(|cap| self.last_propagations >= cap)
            {
                self.backtrack_to(0);
                return SatResult::Unknown;
            }

            match self.pick_branch() {
                None => return SatResult::Sat,
                Some(lit) => {
                    self.trail_limits.push(self.trail.len());
                    self.enqueue(lit, u32::MAX);
                }
            }
        }
    }

    /// The value of `v` in the model found by the last `Sat` answer.
    ///
    /// A variable can legitimately be unassigned even after `Sat` — it was
    /// allocated after the solve, or a clause added since (e.g. a blocking
    /// clause) backtracked the trail. Such variables take their *saved
    /// phase* as the default polarity (`false` for a never-assigned
    /// variable), so model queries never crash a certification run; use
    /// [`Solver::try_model_value`] to distinguish a real model bit from the
    /// default.
    pub fn model_value(&self, v: Var) -> bool {
        self.try_model_value(v)
            .unwrap_or(self.phase[v.index()] == 1)
    }

    /// The value of `v` in the current model, or `None` if `v` is
    /// unassigned (no model, or `v` was not part of the last solve).
    pub fn try_model_value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    /// A solver that checks the watch invariant after every propagation.
    fn checked_solver() -> Solver {
        let mut s = Solver::new();
        s.check_watches = true;
        s
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v));
        assert!(!s.add_clause(&[v.negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_is_sat() {
        // x0 ^ x1 ^ x2 = 1 encoded as CNF.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        for (sa, sb, sc) in [
            (false, false, false),
            (false, true, true),
            (true, false, true),
            (true, true, false),
        ] {
            // Forbid even-parity row (a=sa, b=sb, c=sc): the clause needs
            // the literal that is false under that row, i.e. lit(sa).
            s.add_clause(&[a.lit(sa), b.lit(sb), c.lit(sc)]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let parity = s.model_value(a) as u32 + s.model_value(b) as u32 + s.model_value(c) as u32;
        assert_eq!(parity % 2, 1);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][h].
        let mut s = checked_solver();
        let p: Vec<Vec<Var>> = (0..3).map(|_| vars(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (pi, pj) in row_i.iter().zip(row_j) {
                    s.add_clause(&[pi.negative(), pj.negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_4_is_sat() {
        let mut s = checked_solver();
        let p: Vec<Vec<Var>> = (0..4).map(|_| vars(&mut s, 4)).collect();
        for row in &p {
            let lits: Vec<SatLit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (pi, pj) in row_i.iter().zip(row_j) {
                    s.add_clause(&[pi.negative(), pj.negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Sat);
        // Model is a valid injection.
        for h in 0..4 {
            let count = p.iter().filter(|row| s.model_value(row[h])).count();
            assert!(count <= 1);
        }
    }

    #[test]
    fn assumptions_flip_outcomes() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve_with_assumptions(&[a.negative()]), SatResult::Sat);
        assert!(s.model_value(b));
        assert_eq!(
            s.solve_with_assumptions(&[a.negative(), b.negative()]),
            SatResult::Unsat
        );
        // Solver still usable afterwards.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), a.negative()]),
            SatResult::Unsat
        );
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        for seed in 0..30u64 {
            let mut rng = alsrac_rt::Rng::from_seed(seed);
            let num_vars = 8;
            let num_clauses = rng.gen_range(8..40);
            let clauses: Vec<Vec<(usize, bool)>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.gen_range(0..num_vars), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            // Brute force.
            let brute_sat = (0..1u32 << num_vars).any(|m| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, neg)| (m >> v & 1 == 1) != neg))
            });
            // Solver.
            let mut s = checked_solver();
            let vs = vars(&mut s, num_vars);
            let mut ok = true;
            for c in &clauses {
                let lits: Vec<SatLit> = c.iter().map(|&(v, neg)| vs[v].lit(neg)).collect();
                ok &= s.add_clause(&lits);
            }
            let result = if !ok { SatResult::Unsat } else { s.solve() };
            assert_eq!(
                result,
                if brute_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
                "seed {seed}"
            );
            // If SAT, the model must actually satisfy all clauses.
            if result == SatResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|&(v, neg)| s.model_value(vs[v]) != neg));
                }
            }
        }
    }

    #[test]
    fn unassigned_variables_have_default_model_values() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Allocated after the solve: unassigned, default polarity false.
        let b = s.new_var();
        assert_eq!(s.try_model_value(b), None);
        assert!(!s.model_value(b));
        assert_eq!(s.try_model_value(a), Some(true));
    }

    #[test]
    fn blocking_clause_after_sat_invalidates_model_without_panicking() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let lits: Vec<SatLit> = v.iter().map(|x| x.positive()).collect();
        s.add_clause(&lits);
        let mut models = 0;
        loop {
            if s.solve() == SatResult::Unsat {
                break;
            }
            let bits: Vec<bool> = v.iter().map(|&x| s.model_value(x)).collect();
            assert!(bits.iter().any(|&b| b));
            // Block this assignment; the add backtracks the trail, after
            // which model queries fall back to saved phases, not panics.
            let block: Vec<SatLit> = v.iter().zip(&bits).map(|(&x, &b)| x.lit(b)).collect();
            s.add_clause(&block);
            let _ = s.model_value(v[0]);
            models += 1;
            assert!(models <= 7, "more models than assignments");
        }
        assert_eq!(models, 7); // 2^3 - 1 (all-false violates the clause)
    }

    #[test]
    fn scoped_clauses_are_retracted_on_pop() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.push_scope();
        s.add_clause(&[a.negative()]);
        s.add_clause(&[b.negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
        s.pop_scope();
        // The contradiction lived in the scope; the base formula is SAT.
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(a) || s.model_value(b));
    }

    #[test]
    fn scopes_nest_and_combine_with_assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        s.push_scope();
        s.add_clause(&[v[0].negative()]);
        s.push_scope();
        s.add_clause(&[v[1].negative()]);
        assert_eq!(s.scope_depth(), 2);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[2]));
        assert_eq!(
            s.solve_with_assumptions(&[v[2].negative()]),
            SatResult::Unsat
        );
        s.pop_scope();
        // v1 is free again; only the outer scope's !v0 still binds.
        assert_eq!(s.solve_with_assumptions(&[v[2].negative()]), SatResult::Sat);
        assert!(s.model_value(v[1]));
        assert!(!s.model_value(v[0]));
        s.pop_scope();
        assert_eq!(s.scope_depth(), 0);
        assert_eq!(
            s.solve_with_assumptions(&[v[1].negative(), v[2].negative()]),
            SatResult::Sat
        );
        assert!(s.model_value(v[0]));
    }

    #[test]
    fn base_formula_survives_many_scope_round_trips() {
        // Learned-state reuse smoke: the base formula stays intact (and the
        // solver usable) across many contradictory scopes.
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        for (i, &x) in v.iter().enumerate() {
            let next = v[(i + 1) % v.len()];
            s.add_clause(&[x.negative(), next.positive()]); // x -> next
        }
        for round in 0..20 {
            s.push_scope();
            if round % 2 == 0 {
                s.add_clause(&[v[0].positive()]);
                s.add_clause(&[v[2].negative()]); // contradicts the implication cycle
                assert_eq!(s.solve(), SatResult::Unsat, "round {round}");
            } else {
                s.add_clause(&[v[0].positive()]);
                assert_eq!(s.solve(), SatResult::Sat, "round {round}");
                assert!(v.iter().all(|&x| s.model_value(x)), "cycle forces all");
            }
            s.pop_scope();
        }
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn solver_is_reusable_across_solves() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        for _ in 0..5 {
            assert_eq!(s.solve(), SatResult::Sat);
            assert_eq!(s.solve_with_assumptions(&[a.negative()]), SatResult::Sat);
            assert!(s.model_value(b));
        }
    }

    /// A pigeonhole instance (n+1 pigeons, n holes): UNSAT and guaranteed
    /// to need many conflicts, so budget caps actually bind.
    fn pigeonhole(s: &mut Solver, n: usize) {
        let p: Vec<Vec<Var>> = (0..n + 1).map(|_| vars(s, n)).collect();
        for row in &p {
            let lits: Vec<SatLit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (pi, pj) in row_i.iter().zip(row_j) {
                    s.add_clause(&[pi.negative(), pj.negative()]);
                }
            }
        }
    }

    #[test]
    fn unknown_is_returned_exactly_at_the_conflict_cap() {
        use alsrac_rt::budget::Budget;
        // Reference: how many conflicts does the unbudgeted solve need?
        let mut reference = checked_solver();
        pigeonhole(&mut reference, 6);
        assert_eq!(reference.solve(), SatResult::Unsat);
        let needed = reference.last_conflicts();
        assert!(needed > 10, "instance too easy to exercise the cap");

        for cap in [0, 1, needed / 2, needed - 1] {
            let mut s = checked_solver();
            pigeonhole(&mut s, 6);
            s.set_budget(Budget::default().with_sat_conflicts(cap));
            assert_eq!(s.solve(), SatResult::Unknown, "cap {cap}");
            assert_eq!(s.last_conflicts(), cap, "spent exactly the cap");
        }
        // A cap at (or above) the true requirement answers normally and
        // spends the same deterministic conflict count.
        let mut s = checked_solver();
        pigeonhole(&mut s, 6);
        s.set_budget(Budget::default().with_sat_conflicts(needed));
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(s.last_conflicts(), needed);
    }

    #[test]
    fn propagation_cap_degrades_to_unknown() {
        use alsrac_rt::budget::Budget;
        let mut reference = checked_solver();
        pigeonhole(&mut reference, 6);
        assert_eq!(reference.solve(), SatResult::Unsat);
        let needed = reference.last_propagations();
        assert!(needed > 10);

        let mut s = checked_solver();
        pigeonhole(&mut s, 6);
        s.set_budget(Budget::default().with_sat_propagations(needed / 2));
        assert_eq!(s.solve(), SatResult::Unknown);
        assert!(s.last_propagations() < needed);
        s.clear_budget();
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn budget_exhausted_scoped_solve_leaves_the_solver_reusable() {
        use alsrac_rt::budget::Budget;
        // Base formula: a simple implication cycle (SAT).
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        for (i, &x) in v.iter().enumerate() {
            s.add_clause(&[x.negative(), v[(i + 1) % v.len()].positive()]);
        }
        // Inside a scope, pile on a hard UNSAT instance and exhaust the
        // budget on it.
        s.push_scope();
        pigeonhole(&mut s, 6);
        s.set_budget(Budget::default().with_sat_conflicts(5));
        assert_eq!(s.solve(), SatResult::Unknown);
        // Popping the scope must still retire the scoped clauses (and any
        // learned clauses derived from them) even though the last answer
        // was Unknown.
        s.pop_scope();
        assert_eq!(s.scope_depth(), 0);
        s.clear_budget();
        assert_eq!(s.solve(), SatResult::Sat, "base formula intact after pop");
        assert_eq!(s.solve_with_assumptions(&[v[0].positive()]), SatResult::Sat);
        assert!(v.iter().all(|&x| s.model_value(x)), "cycle forces all true");
    }

    #[test]
    fn tripped_cancel_token_yields_unknown_and_untripped_does_not() {
        use alsrac_rt::budget::{Budget, CancelToken};
        let token = CancelToken::new();
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        s.set_budget(Budget::default().with_cancel(token.clone()));
        assert_eq!(s.solve(), SatResult::Unsat, "untripped token is inert");
        // The UNSAT answer made the solver permanently dead — a hard fact
        // that rightly beats any budget. Use a fresh solver for the
        // tripped-token path.
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        s.set_budget(Budget::default().with_cancel(token.clone()));
        token.trip();
        assert_eq!(s.solve(), SatResult::Unknown, "tripped at entry");
        s.clear_budget();
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn expired_deadline_yields_unknown() {
        use alsrac_rt::budget::Budget;
        use std::time::Duration;
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        s.set_budget(Budget::default().with_deadline_after(Duration::ZERO));
        assert_eq!(s.solve(), SatResult::Unknown);
    }

    #[test]
    fn unbudgeted_solver_never_answers_unknown_and_counts_deterministically() {
        let mut a = checked_solver();
        pigeonhole(&mut a, 5);
        let mut b = checked_solver();
        pigeonhole(&mut b, 5);
        assert_eq!(a.solve(), SatResult::Unsat);
        assert_eq!(b.solve(), SatResult::Unsat);
        assert_eq!(a.last_conflicts(), b.last_conflicts());
        assert_eq!(a.last_propagations(), b.last_propagations());
    }

    #[test]
    fn a_learned_clause_watches_a_literal_of_the_backjump_level() {
        // Decide a (level 1) and b (level 2); c (level 3) implies x and y,
        // which conflict with (¬a ∨ ¬b ∨ ¬x ∨ ¬y). The learned clause is
        // (¬c ∨ ¬a ∨ ¬b) with backjump level 2; by then watch moves have
        // put ¬a ahead of ¬b in the conflict clause.
        let mut s = Solver::new();
        let [a, b, c, x, y] = [(); 5].map(|()| s.new_var());
        s.add_clause(&[a.negative(), b.negative(), x.negative(), y.negative()]);
        s.add_clause(&[c.negative(), x.positive()]);
        s.add_clause(&[c.negative(), y.positive()]);
        for decision in [a, b] {
            s.trail_limits.push(s.trail.len());
            s.enqueue(decision.positive(), u32::MAX);
            assert_eq!(s.propagate(), None);
        }
        s.trail_limits.push(s.trail.len());
        s.enqueue(c.positive(), u32::MAX);
        let conflict = s.propagate().expect("x and y conflict");
        let (learned, backjump) = s.analyze(conflict);
        assert_eq!(learned[0], c.negative(), "asserting literal first");
        assert_eq!(learned.len(), 3);
        assert_eq!(backjump, 2);
        assert_eq!(s.level[learned[1].var().index()], backjump);
    }
}
