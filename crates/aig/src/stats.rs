//! Summary statistics for reports and debugging.

use std::fmt;

use crate::Aig;

/// A snapshot of the headline metrics of an [`Aig`].
///
/// ```
/// use alsrac_aig::Aig;
///
/// let mut aig = Aig::new("t");
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let x = aig.xor(a, b);
/// aig.add_output("y", x);
/// let stats = aig.stats();
/// assert_eq!(stats.ands, 3);
/// assert_eq!(stats.depth, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AigStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of AND nodes (AIG size).
    pub ands: usize,
    /// Maximum logic level over the outputs (AIG depth).
    pub depth: u32,
    /// Number of complemented edges (including output drivers).
    pub complemented_edges: usize,
}

impl fmt::Display for AigStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "i/o = {}/{}  and = {}  lev = {}",
            self.inputs, self.outputs, self.ands, self.depth
        )
    }
}

impl Aig {
    /// Computes summary statistics for this graph.
    pub fn stats(&self) -> AigStats {
        let mut complemented_edges = 0;
        for id in self.iter_ands() {
            let [f0, f1] = self.and_fanins(id);
            complemented_edges += f0.is_complement() as usize + f1.is_complement() as usize;
        }
        complemented_edges += self
            .outputs()
            .iter()
            .filter(|o| o.lit.is_complement())
            .count();
        AigStats {
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            ands: self.num_ands(),
            depth: self.depth(),
            complemented_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_is_compact() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        aig.add_output("y", !a);
        let s = aig.stats();
        assert_eq!(s.to_string(), "i/o = 1/1  and = 0  lev = 0");
        assert_eq!(s.complemented_edges, 1);
    }
}
