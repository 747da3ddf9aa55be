//! Output fingerprints: `optimize`, `map_luts` and `map_cells` pinned node
//! for node on a fixed circuit set.
//!
//! A change that only makes the optimizer or the mappers faster must leave
//! every output alone. Each circuit's three results are hashed (FNV-1a over
//! a byte rendering) and compared with a committed table, so such a change
//! is checked against the outputs of the code it replaced without keeping
//! that code around. A legitimate output change updates the table: the
//! failure message prints the whole table as computed.
//!
//! The set is every Test-scale catalog circuit plus three small Paper-scale
//! ones.

use alsrac_suite::aig::Aig;
use alsrac_suite::circuits::aiger;
use alsrac_suite::circuits::catalog::{self, Scale};
use alsrac_suite::map::cell::{map_cells_with_mode, Library, MapMode};
use alsrac_suite::map::lut::map_luts;
use alsrac_suite::synth::optimize;

/// `(scale, name, optimize, map_luts(_, 6), map_cells Area)` fingerprints.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("test", "alu4", 0x47fc1d1e760f2928, 0xb78057839617b53c, 0xc5ce6568b8a1640c),
    ("test", "c880", 0xd3dafd4cfa75c625, 0xfae5db9b65542b51, 0x799a6588e5823f2d),
    ("test", "c1908", 0xb221f2a17ea90b02, 0xde476244051853f4, 0x3aa9859eb19ab8cc),
    ("test", "c2670", 0xe09e5d9bf0c0352f, 0x5ad040f17dadc6fd, 0xcf12029df1da1dd7),
    ("test", "cla32", 0xcfe399a3e80fcba7, 0xb32aef2851591d32, 0xacdd4cb0c23f82d6),
    ("test", "ksa32", 0x79f9d9780a2d74a3, 0x759810e568797c37, 0xfaa0df106091d808),
    ("test", "mtp8", 0x36285167d786b203, 0xa34e356105b3be6f, 0x4c6d0a4fdd55ceff),
    ("test", "rca32", 0xdc121f231523db2b, 0xcc86e603f06b6b7f, 0xad2f78df81d978a8),
    ("test", "wal8", 0x86834a7d06009143, 0x992465fa9bbc4be2, 0x3f631bd5a4e65e8f),
    ("test", "arbiter", 0x293934a97d94e97f, 0x1226bdfec6d6b2c7, 0xd2d6a8c64eb56574),
    ("test", "cavlc", 0x836a82405075443e, 0x1fba2b683a7f7c3e, 0xbc54c300ac1c2249),
    ("test", "alu ctrl", 0x62c7594f940e5ec7, 0x60f0a9c21d14f4cd, 0xea5cdf843851eeb4),
    ("test", "decoder", 0x98f9368adc41a5d3, 0x1212f0c1181c28ce, 0x8a4477e4db412c3a),
    ("test", "int2float", 0xfb32f96de6f3e533, 0xbb43340a082b8269, 0x2bfffb5ae9bd8c6c),
    ("test", "priority", 0x4b81070d15dbc0fc, 0x64db318b55307476, 0xf9256c81ca8a7b59),
    ("test", "router", 0x22e9e9e9840f1b89, 0xfd7f6f0f6c56d91e, 0xc8e6635a90c82bef),
    ("test", "voter", 0x720e5e8522ef5def, 0xfd8fced1c40d3b19, 0xc143a65129ec3d8b),
    ("test", "adder", 0xdc121f231523db2b, 0xcc86e603f06b6b7f, 0xad2f78df81d978a8),
    ("test", "shifter", 0x60d27c0a7d7dd39c, 0x829734bb271a96c3, 0x29b3a3546a852f14),
    ("test", "divisor", 0x141e1bd597017322, 0xb74c8d60b1d83cfb, 0x14bd3d913c7a56c8),
    ("test", "log2", 0x3b9afd1fa3c8ae47, 0xbf8813dc8911c1d5, 0x934af97b3496b86d),
    ("test", "max", 0x9acfd29d2833b5fa, 0xa31f62a3ac753d76, 0xa2284d0c8d82f385),
    ("test", "mult", 0x86834a7d06009143, 0x992465fa9bbc4be2, 0x3f631bd5a4e65e8f),
    ("test", "sine", 0x811f6068e3503b90, 0xfbe30bd577dbf00b, 0x888c5ad645c0899f),
    ("test", "sqrt", 0xf0d9ed2d7e5a2add, 0x4af26afd504c8e8f, 0x324b279b7f388531),
    ("test", "square", 0xccd81479db5b657c, 0x9a67136145e5f224, 0xb99f239712a6378a),
    ("paper", "alu4", 0xf48e35650a07bf24, 0x3926cab850758bc3, 0x01e65eb73b0b4fb2),
    ("paper", "int2float", 0x4568724b3cbf4048, 0xa2b590b279a34aa5, 0xca34bb3e96a1f459),
    ("paper", "log2", 0x534a05c1531c25ee, 0x8e8cec246bad996c, 0xf86fe09f61c00c2d),
];

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn optimize_fingerprint(aig: &Aig) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&aiger::write_binary(&optimize(aig)));
    h.0
}

/// Every LUT's root, leaves and table, then the depth.
fn lut_fingerprint(aig: &Aig) -> u64 {
    let mapping = map_luts(aig, 6);
    let mut h = Fnv::new();
    for lut in mapping.luts() {
        h.u64(lut.root.index() as u64);
        h.u64(lut.leaves.len() as u64);
        for leaf in &lut.leaves {
            h.u64(leaf.index() as u64);
        }
        h.u64(lut.tt.nvars() as u64);
        for &word in lut.tt.words() {
            h.u64(word);
        }
    }
    h.u64(u64::from(mapping.depth()));
    h.0
}

/// Every cell's gate, area, output, inputs and table, then the totals.
fn cell_fingerprint(aig: &Aig, library: &Library) -> u64 {
    let mapping = map_cells_with_mode(aig, library, MapMode::Area);
    let mut h = Fnv::new();
    let signal = |h: &mut Fnv, (node, complemented): (alsrac_suite::aig::NodeId, bool)| {
        h.u64(node.index() as u64);
        h.u64(u64::from(complemented));
    };
    for cell in &mapping.cells {
        h.str(&cell.gate);
        h.u64(cell.area.to_bits());
        signal(&mut h, cell.output);
        h.u64(cell.inputs.len() as u64);
        for &input in &cell.inputs {
            signal(&mut h, input);
        }
        h.u64(cell.tt.nvars() as u64);
        for &word in cell.tt.words() {
            h.u64(word);
        }
    }
    h.u64(mapping.area.to_bits());
    h.u64(mapping.delay.to_bits());
    h.0
}

fn circuits() -> Vec<(&'static str, &'static str, Aig)> {
    let test = catalog::iscas_and_arith(Scale::Test)
        .into_iter()
        .chain(catalog::epfl_control(Scale::Test))
        .chain(catalog::epfl_arith(Scale::Test))
        .map(|b| ("test", b.paper_name, b.aig));
    let paper = ["alu4", "int2float", "log2"].into_iter().map(|name| {
        let aig = catalog::by_name(name, Scale::Paper).expect("catalog circuit");
        ("paper", name, aig)
    });
    test.chain(paper).collect()
}

#[test]
fn optimizer_and_mapper_outputs_match_the_committed_fingerprints() {
    let library = Library::mcnc();
    let got: Vec<(&str, &str, u64, u64, u64)> = circuits()
        .iter()
        .map(|(scale, name, aig)| {
            (
                *scale,
                *name,
                optimize_fingerprint(aig),
                lut_fingerprint(aig),
                cell_fingerprint(aig, &library),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(scale, name, o, l, c)| {
            format!("    (\"{scale}\", \"{name}\", {o:#018x}, {l:#018x}, {c:#018x}),\n")
        })
        .collect();
    assert!(
        got == GOLDEN,
        "fingerprints differ from the committed table; computed:\n{table}"
    );
}
