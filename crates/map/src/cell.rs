//! Standard-cell mapping against an MCNC-like gate library.

use std::collections::HashMap;

use alsrac_aig::{Aig, FxHasher, Node, NodeId, NodeSet};
use alsrac_truthtable::{CutEvaluator, Tt};

/// One library gate: a named function with area and pin-to-output delay.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Cell name (e.g. `nand2`).
    pub name: String,
    /// Area cost (arbitrary consistent units).
    pub area: f64,
    /// Pin-to-output delay (single worst-case value).
    pub delay: f64,
    /// Function over the gate pins (variable `i` = pin `i`).
    pub tt: Tt,
}

/// How a cut function maps onto a gate: pin `j` is driven by cut leaf
/// `pin_leaf[j]`, complemented when bit `j` of `pin_neg` is set.
#[derive(Clone, Debug)]
struct GateMatch {
    gate: usize,
    pin_leaf: Vec<u8>,
    pin_neg: u8,
}

/// A gate library with a precomputed permutation/input-phase match table.
#[derive(Clone, Debug)]
pub struct Library {
    gates: Vec<Gate>,
    inv_area: f64,
    inv_delay: f64,
    /// Cut function, as (variable count, tail-masked word) -> ways to
    /// realize it with one gate. Matching a cut builds no table.
    matches: HashMap<(u8, u64), Vec<GateMatch>, FxHasher>,
}

impl Library {
    /// Builds a library from explicit gates plus an inverter.
    ///
    /// Every permutation and input-phase variant of every gate is indexed,
    /// so matching is a single hash lookup per cut function.
    pub fn new(gates: Vec<Gate>, inv_area: f64, inv_delay: f64) -> Library {
        let mut matches: HashMap<(u8, u64), Vec<GateMatch>, FxHasher> = HashMap::default();
        for (g, gate) in gates.iter().enumerate() {
            let m = gate.tt.nvars();
            for perm in permutations(m) {
                for neg in 0..1u8 << m {
                    let variant = Tt::from_fn(m, |p| {
                        let mut pins = 0usize;
                        for (j, &leaf) in perm.iter().enumerate() {
                            let bit = (p >> leaf & 1) as u8 ^ (neg >> j & 1);
                            pins |= (bit as usize) << j;
                        }
                        gate.tt.get(pins)
                    });
                    let key = (m as u8, variant.to_bits());
                    matches.entry(key).or_default().push(GateMatch {
                        gate: g,
                        pin_leaf: perm.clone(),
                        pin_neg: neg,
                    });
                }
            }
        }
        Library {
            gates,
            inv_area,
            inv_delay,
            matches,
        }
    }

    /// An MCNC-`genlib`-flavoured library: inverter, NAND/NOR/AND/OR up to
    /// 4 inputs, XOR/XNOR, AOI/OAI, MUX, and 3-input majority, with areas
    /// and delays in the same relative proportions as `mcnc.genlib`.
    pub fn mcnc() -> Library {
        fn tt2(f: impl Fn(bool, bool) -> bool) -> Tt {
            Tt::from_fn(2, |p| f(p & 1 != 0, p & 2 != 0))
        }
        fn tt3(f: impl Fn(bool, bool, bool) -> bool) -> Tt {
            Tt::from_fn(3, |p| f(p & 1 != 0, p & 2 != 0, p & 4 != 0))
        }
        fn tt4(f: impl Fn(bool, bool, bool, bool) -> bool) -> Tt {
            Tt::from_fn(4, |p| f(p & 1 != 0, p & 2 != 0, p & 4 != 0, p & 8 != 0))
        }
        let gate = |name: &str, area: f64, delay: f64, tt: Tt| Gate {
            name: name.to_string(),
            area,
            delay,
            tt,
        };
        Library::new(
            vec![
                gate("nand2", 2.0, 1.0, tt2(|a, b| !(a && b))),
                gate("nor2", 2.0, 1.4, tt2(|a, b| !(a || b))),
                gate("and2", 3.0, 1.9, tt2(|a, b| a && b)),
                gate("or2", 3.0, 1.9, tt2(|a, b| a || b)),
                gate("xor2", 5.0, 1.9, tt2(|a, b| a ^ b)),
                gate("xnor2", 5.0, 2.1, tt2(|a, b| !(a ^ b))),
                gate("nand3", 3.0, 1.1, tt3(|a, b, c| !(a && b && c))),
                gate("nor3", 3.0, 2.4, tt3(|a, b, c| !(a || b || c))),
                gate("and3", 4.0, 2.0, tt3(|a, b, c| a && b && c)),
                gate("or3", 4.0, 2.4, tt3(|a, b, c| a || b || c)),
                gate("nand4", 4.0, 1.4, tt4(|a, b, c, d| !(a && b && c && d))),
                gate("nor4", 4.0, 3.8, tt4(|a, b, c, d| !(a || b || c || d))),
                gate("aoi21", 3.0, 1.6, tt3(|a, b, c| !(a && b || c))),
                gate("oai21", 3.0, 1.6, tt3(|a, b, c| !((a || b) && c))),
                gate("aoi22", 4.0, 2.1, tt4(|a, b, c, d| !(a && b || c && d))),
                gate("oai22", 4.0, 2.1, tt4(|a, b, c, d| !((a || b) && (c || d)))),
                gate("mux21", 5.0, 2.0, tt3(|a, b, s| if s { b } else { a })),
                gate("maj3", 6.0, 2.4, tt3(|a, b, c| (a & b) | (b & c) | (a & c))),
            ],
            1.0,
            1.0,
        )
    }

    /// The gates of the library (excluding the implicit inverter).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }
}

fn permutations(m: usize) -> Vec<Vec<u8>> {
    let mut result = Vec::new();
    let mut items: Vec<u8> = (0..m as u8).collect();
    permute_rec(&mut items, 0, &mut result);
    result
}

fn permute_rec(items: &mut Vec<u8>, k: usize, out: &mut Vec<Vec<u8>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute_rec(items, k + 1, out);
        items.swap(k, i);
    }
}

/// Mapping objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MapMode {
    /// Minimize area, tie-break on delay (default).
    #[default]
    Area,
    /// Minimize delay, tie-break on area (ABC `map -D`-style).
    Delay,
}

/// A signal in the mapped netlist: an AIG node in a polarity.
pub type Signal = (NodeId, bool);

/// One placed cell.
#[derive(Clone, Debug)]
pub struct CellInstance {
    /// Cell name (`inv` for inverters).
    pub gate: String,
    /// Area of this instance.
    pub area: f64,
    /// The signal this cell produces.
    pub output: Signal,
    /// Driving signals, in pin order.
    pub inputs: Vec<Signal>,
    /// Cell function over the pins.
    pub tt: Tt,
}

/// A complete standard-cell covering.
#[derive(Clone, Debug)]
pub struct CellMapping {
    /// Placed cells in a topologically evaluable order.
    pub cells: Vec<CellInstance>,
    /// Total cell area.
    pub area: f64,
    /// Critical-path delay.
    pub delay: f64,
}

#[derive(Clone, Copy, Debug)]
enum Choice<'a> {
    /// Input or constant: available for free in positive polarity.
    Wire,
    /// Realized by an inverter from the opposite polarity.
    Inverter,
    /// Realized by one gate over a cut.
    Mapped {
        cut: NodeSet,
        matched: &'a GateMatch,
    },
    /// Not realizable directly (before inverter relaxation).
    None,
}

/// Maps `aig` onto `library` cells.
///
/// Dynamic programming over (node, polarity) with full phase assignment:
/// each AND node picks the cheapest gate match over its ≤4-feasible cuts in
/// both polarities, with explicit inverters closing the gaps. The cover is
/// extracted from the outputs so shared cells are counted once.
pub fn map_cells(aig: &Aig, library: &Library) -> CellMapping {
    map_cells_with_mode(aig, library, MapMode::Area)
}

/// [`map_cells`] with an explicit optimization objective.
pub fn map_cells_with_mode(aig: &Aig, library: &Library, mode: MapMode) -> CellMapping {
    let cut_table = aig.enumerate_cuts(4, 10);
    let num = aig.num_nodes();
    // [node][phase]: cost, arrival, choice.
    let mut cost = vec![[f64::INFINITY; 2]; num];
    let mut arrival = vec![[f64::INFINITY; 2]; num];
    let mut choice = vec![[Choice::None; 2]; num];
    let mut eval = CutEvaluator::new();

    fn better(mode: MapMode, c1: f64, a1: f64, c2: f64, a2: f64) -> bool {
        match mode {
            MapMode::Area => (c1, a1) < (c2, a2),
            MapMode::Delay => (a1, c1) < (a2, c2),
        }
    }

    for id in aig.iter_nodes() {
        let i = id.index();
        match *aig.node(id) {
            Node::Const | Node::Input { .. } => {
                cost[i][0] = 0.0;
                arrival[i][0] = 0.0;
                choice[i][0] = Choice::Wire;
                cost[i][1] = library.inv_area;
                arrival[i][1] = library.inv_delay;
                choice[i][1] = Choice::Inverter;
            }
            Node::And { .. } => {
                for &cut in cut_table.cuts(id) {
                    let Some(bits) = eval.word(aig, id.lit(), &cut) else {
                        continue;
                    };
                    // Both phases' words tail-masked, as `Tt::to_bits` keys
                    // the library.
                    let tail = u64::MAX >> (64 - (1 << cut.len()));
                    for (phase, bits) in [bits, !bits].into_iter().enumerate() {
                        let key = (cut.len() as u8, bits & tail);
                        let Some(candidates) = library.matches.get(&key) else {
                            continue;
                        };
                        for m in candidates {
                            let gate = &library.gates[m.gate];
                            let mut c = gate.area;
                            let mut a = 0.0f64;
                            let mut feasible = true;
                            for (j, &leaf_idx) in m.pin_leaf.iter().enumerate() {
                                let leaf = cut[leaf_idx as usize];
                                let ph = (m.pin_neg >> j & 1) as usize;
                                if cost[leaf.index()][ph].is_infinite() {
                                    feasible = false;
                                    break;
                                }
                                c += cost[leaf.index()][ph];
                                a = a.max(arrival[leaf.index()][ph]);
                            }
                            if !feasible {
                                continue;
                            }
                            a += gate.delay;
                            if better(mode, c, a, cost[i][phase], arrival[i][phase]) {
                                cost[i][phase] = c;
                                arrival[i][phase] = a;
                                choice[i][phase] = Choice::Mapped { cut, matched: m };
                            }
                        }
                    }
                }
                // Inverter relaxation between the two phases.
                for (phase, other) in [(0usize, 1usize), (1, 0)] {
                    let c = cost[i][other] + library.inv_area;
                    let a = arrival[i][other] + library.inv_delay;
                    if better(mode, c, a, cost[i][phase], arrival[i][phase])
                        && !matches!(choice[i][other], Choice::Inverter | Choice::None)
                    {
                        cost[i][phase] = c;
                        arrival[i][phase] = a;
                        choice[i][phase] = Choice::Inverter;
                    }
                }
                debug_assert!(
                    cost[i][0].is_finite() && cost[i][1].is_finite(),
                    "node {id} unmappable — fanin-pair cut should always match"
                );
            }
        }
    }

    // Extract the cover.
    let mut placed = vec![[false; 2]; num];
    let mut cells = Vec::new();
    let mut stack: Vec<(NodeId, usize)> = aig
        .outputs()
        .iter()
        .map(|o| (o.lit.node(), o.lit.is_complement() as usize))
        .collect();
    while let Some((id, phase)) = stack.pop() {
        if std::mem::replace(&mut placed[id.index()][phase], true) {
            continue;
        }
        match choice[id.index()][phase] {
            Choice::Wire => {}
            Choice::None => unreachable!("cover references unmapped signal"),
            Choice::Inverter => {
                cells.push(CellInstance {
                    gate: "inv".to_string(),
                    area: library.inv_area,
                    output: (id, phase == 1),
                    inputs: vec![(id, phase == 0)],
                    tt: Tt::var(0, 1).not(),
                });
                stack.push((id, 1 - phase));
            }
            Choice::Mapped { cut, matched } => {
                let g = &library.gates[matched.gate];
                let inputs: Vec<Signal> = matched
                    .pin_leaf
                    .iter()
                    .enumerate()
                    .map(|(j, &leaf_idx)| {
                        let leaf = cut[leaf_idx as usize];
                        let ph = matched.pin_neg >> j & 1 == 1;
                        stack.push((leaf, ph as usize));
                        (leaf, ph)
                    })
                    .collect();
                // When matching the negative phase we indexed by !f, so the
                // gate output *is* the complemented node function: the base
                // table applied to the pin signals yields the signal value
                // directly in either phase.
                cells.push(CellInstance {
                    gate: g.name.clone(),
                    area: g.area,
                    output: (id, phase == 1),
                    inputs,
                    tt: g.tt.clone(),
                });
            }
        }
    }
    // Topological order for evaluation: by (node id, phase-with-inverters
    // last). Inverters read the opposite phase of the same node, which is
    // always a non-inverter definition, so ordering inverters after direct
    // definitions of the same node suffices.
    cells.sort_by_key(|c| (c.output.0, c.gate == "inv"));

    let area = cells.iter().map(|c| c.area).sum();
    let delay = aig
        .outputs()
        .iter()
        .map(|o| {
            let v = arrival[o.lit.node().index()][o.lit.is_complement() as usize];
            if v.is_finite() {
                v
            } else {
                0.0
            }
        })
        .fold(0.0f64, f64::max);
    CellMapping { cells, area, delay }
}

/// Evaluates a cell mapping on one input pattern — the reference used to
/// check covers against the original circuit.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the graph's input count.
pub fn evaluate_mapping(aig: &Aig, mapping: &CellMapping, inputs: &[bool]) -> Vec<bool> {
    assert_eq!(inputs.len(), aig.num_inputs(), "input arity mismatch");
    let mut signals: HashMap<(usize, bool), bool> = HashMap::new();
    signals.insert((NodeId::CONST.index(), false), false);
    signals.insert((NodeId::CONST.index(), true), true);
    for (i, &input) in aig.inputs().iter().enumerate() {
        signals.insert((input.index(), false), inputs[i]);
        signals.insert((input.index(), true), !inputs[i]);
    }
    for cell in &mapping.cells {
        let mut pattern = 0usize;
        for (j, &(node, phase)) in cell.inputs.iter().enumerate() {
            let v = *signals
                .get(&(node.index(), phase))
                .expect("inputs precede consumers in cell order");
            pattern |= (v as usize) << j;
        }
        let v = cell.tt.get(pattern);
        signals.insert((cell.output.0.index(), cell.output.1), v);
    }
    aig.outputs()
        .iter()
        .map(|o| {
            *signals
                .get(&(o.lit.node().index(), o.lit.is_complement()))
                .expect("output signal mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(aig: &Aig, mode: MapMode) -> CellMapping {
        let lib = Library::mcnc();
        let mapping = map_cells_with_mode(aig, &lib, mode);
        let n = aig.num_inputs();
        assert!(n <= 12, "test helper is exhaustive");
        for p in 0..1u64 << n {
            let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(
                evaluate_mapping(aig, &mapping, &bits),
                aig.evaluate(&bits),
                "{} pattern {p:b}",
                aig.name()
            );
        }
        mapping
    }

    #[test]
    fn maps_single_gates_to_single_cells() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y", !x); // nand
        let mapping = check_cover(&aig, MapMode::Area);
        assert_eq!(mapping.cells.len(), 1);
        assert_eq!(mapping.cells[0].gate, "nand2");
    }

    #[test]
    fn xor_uses_xor_cell() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.xor(a, b);
        aig.add_output("y", x);
        let mapping = check_cover(&aig, MapMode::Area);
        assert_eq!(mapping.cells.len(), 1);
        assert_eq!(mapping.cells[0].gate, "xor2");
    }

    #[test]
    fn covers_arithmetic_circuits() {
        for aig in [
            alsrac_circuits::arith::ripple_carry_adder(4),
            alsrac_circuits::arith::wallace_multiplier(3),
            alsrac_circuits::arith::alu(3),
        ] {
            let area_mapping = check_cover(&aig, MapMode::Area);
            let delay_mapping = check_cover(&aig, MapMode::Delay);
            assert!(area_mapping.area <= delay_mapping.area + 1e-9);
            assert!(delay_mapping.delay <= area_mapping.delay + 1e-9);
        }
    }

    #[test]
    fn covers_control_circuits() {
        for aig in [
            alsrac_circuits::control::voter(7),
            alsrac_circuits::control::priority_encoder(6),
            alsrac_circuits::catalog::ecc_network(6, 5),
        ] {
            check_cover(&aig, MapMode::Area);
        }
    }

    #[test]
    fn inverter_only_circuit() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("y", !a);
        let mapping = check_cover(&aig, MapMode::Area);
        assert_eq!(mapping.cells.len(), 1);
        assert_eq!(mapping.cells[0].gate, "inv");
        assert!((mapping.area - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_outputs_cost_nothing() {
        let mut aig = Aig::new("t");
        let _ = aig.add_input("a");
        aig.add_output("zero", alsrac_aig::Lit::FALSE);
        aig.add_output("one", alsrac_aig::Lit::TRUE);
        let mapping = check_cover(&aig, MapMode::Area);
        // A single inverter realizes constant-one from constant-zero.
        assert!(mapping.area <= 1.0 + 1e-9);
    }

    #[test]
    fn shared_cells_counted_once() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        aig.add_output("y1", x);
        aig.add_output("y2", x);
        let mapping = check_cover(&aig, MapMode::Area);
        assert_eq!(mapping.cells.len(), 1);
    }

    #[test]
    fn library_matches_cover_basic_functions() {
        let lib = Library::mcnc();
        // Every 2-input function of the form (±a)&(±b) and its complement
        // must match directly.
        for neg in 0..4u8 {
            let tt = Tt::from_fn(2, |p| {
                ((p & 1 != 0) ^ (neg & 1 != 0)) && ((p & 2 != 0) ^ (neg & 2 != 0))
            });
            assert!(
                lib.matches.contains_key(&(2, tt.to_bits())),
                "missing (±a)&(±b) {neg}"
            );
            assert!(
                lib.matches.contains_key(&(2, tt.not().to_bits())),
                "missing complement {neg}"
            );
        }
    }
}
