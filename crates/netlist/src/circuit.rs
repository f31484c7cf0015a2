//! The frozen, validated circuit.

use std::fmt;

use crate::{Cell, Coupling, CouplingId, Gate, GateId, Library, Net, NetId, NetSource};

/// A validated, immutable gate-level circuit with parasitics.
///
/// Produced by [`CircuitBuilder`](crate::CircuitBuilder) or the synthetic
/// [`generator`](crate::generator); guarantees:
///
/// * every net has exactly one source (gate or primary input),
/// * the gate graph is acyclic, with a precomputed topological order,
/// * at least one net is marked as a primary output,
/// * all capacitances are finite and non-negative.
///
/// # Example
///
/// ```
/// use dna_netlist::{CircuitBuilder, Library, CellKind};
///
/// let mut b = CircuitBuilder::new(Library::cmos013());
/// let a = b.input("a");
/// let y = b.gate(CellKind::Inv, "u1", &[a])?;
/// b.output(y);
/// let circuit = b.build()?;
/// assert_eq!(circuit.num_gates(), 1);
/// assert_eq!(circuit.primary_inputs().count(), 1);
/// # Ok::<(), dna_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    pub(crate) library: Library,
    pub(crate) gates: Vec<Gate>,
    pub(crate) nets: Vec<Net>,
    pub(crate) couplings: Vec<Coupling>,
    pub(crate) gate_topo: Vec<GateId>,
    pub(crate) net_topo: Vec<NetId>,
    pub(crate) couplings_by_net: Vec<Vec<CouplingId>>,
    pub(crate) outputs: Vec<NetId>,
}

/// The raw constituents of a [`Circuit`], with every invariant dropped.
///
/// Obtained from [`Circuit::into_parts`] and reassembled with
/// [`Circuit::from_parts_unchecked`]. This is the escape hatch used by the
/// `dna-lint` verifier's test corpus: builder-validated circuits cannot
/// express dangling ids, cycles or corrupted caches, so deliberately broken
/// inputs are produced by taking a valid circuit apart, mutating the parts
/// and reassembling without re-validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitParts {
    /// The cell library.
    pub library: Library,
    /// Gate instances, indexed by [`GateId`].
    pub gates: Vec<Gate>,
    /// Nets, indexed by [`NetId`].
    pub nets: Vec<Net>,
    /// Coupling capacitors, indexed by [`CouplingId`].
    pub couplings: Vec<Coupling>,
    /// Cached topological order of gates.
    pub gate_topo: Vec<GateId>,
    /// Cached topological order of nets.
    pub net_topo: Vec<NetId>,
    /// Cached per-net incident coupling lists, indexed by net.
    pub couplings_by_net: Vec<Vec<CouplingId>>,
    /// Primary output nets.
    pub outputs: Vec<NetId>,
}

impl Circuit {
    /// Decomposes the circuit into its raw parts.
    #[must_use]
    pub fn into_parts(self) -> CircuitParts {
        CircuitParts {
            library: self.library,
            gates: self.gates,
            nets: self.nets,
            couplings: self.couplings,
            gate_topo: self.gate_topo,
            net_topo: self.net_topo,
            couplings_by_net: self.couplings_by_net,
            outputs: self.outputs,
        }
    }

    /// Reassembles a circuit from raw parts **without any validation**.
    ///
    /// The result may violate every invariant the builder guarantees;
    /// analyses run on such a circuit may panic or return nonsense. Intended
    /// only for IR-level tooling — in particular the `dna-lint` verifier's
    /// known-bad test corpus. Use [`CircuitBuilder`](crate::CircuitBuilder)
    /// for anything else.
    #[must_use]
    pub fn from_parts_unchecked(parts: CircuitParts) -> Self {
        Self {
            library: parts.library,
            gates: parts.gates,
            nets: parts.nets,
            couplings: parts.couplings,
            gate_topo: parts.gate_topo,
            net_topo: parts.net_topo,
            couplings_by_net: parts.couplings_by_net,
            outputs: parts.outputs,
        }
    }

    /// The cell library the circuit was mapped to.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Number of gate instances.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of coupling capacitors.
    #[must_use]
    pub fn num_couplings(&self) -> usize {
        self.couplings.len()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The coupling capacitor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn coupling(&self, id: CouplingId) -> &Coupling {
        &self.couplings[id.index()]
    }

    /// Gates in topological order (drivers before loads).
    #[must_use]
    pub fn gates_topological(&self) -> &[GateId] {
        &self.gate_topo
    }

    /// Nets in topological order: primary inputs first, then gate outputs
    /// in gate topological order.
    #[must_use]
    pub fn nets_topological(&self) -> &[NetId] {
        &self.net_topo
    }

    /// Iterator over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId::new)
    }

    /// Iterator over all gate ids.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId::new)
    }

    /// Iterator over all coupling-capacitor ids.
    pub fn coupling_ids(&self) -> impl Iterator<Item = CouplingId> + '_ {
        (0..self.couplings.len() as u32).map(CouplingId::new)
    }

    /// Primary input nets.
    pub fn primary_inputs(&self) -> impl Iterator<Item = NetId> + '_ {
        self.net_ids().filter(|&n| self.net(n).is_input())
    }

    /// Primary output nets (the timing sinks).
    #[must_use]
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Coupling capacitors incident to `net`.
    #[must_use]
    pub fn couplings_on(&self, net: NetId) -> &[CouplingId] {
        &self.couplings_by_net[net.index()]
    }

    /// The characterized cell driving `net`, or `None` for primary inputs.
    #[must_use]
    pub fn driver_cell(&self, net: NetId) -> Option<&Cell> {
        match self.net(net).source() {
            NetSource::PrimaryInput => None,
            NetSource::Gate(g) => Some(self.library.cell(self.gate(g).kind())),
        }
    }

    /// Total grounded load capacitance seen by the driver of `net`:
    /// wire capacitance plus the input capacitance of every load pin plus
    /// all incident coupling capacitance (grounded-aggressor approximation
    /// for nominal delay).
    #[must_use]
    pub fn load_cap(&self, net: NetId) -> f64 {
        let n = self.net(net);
        let pin_caps: f64 =
            n.loads().iter().map(|&g| self.library.cell(self.gate(g).kind()).input_cap).sum();
        let coupling_caps: f64 =
            self.couplings_on(net).iter().map(|&c| self.coupling(c).cap()).sum();
        n.wire_cap() + pin_caps + coupling_caps
    }

    /// Every net in the transitive fanin cone of `net`, **excluding** `net`
    /// itself, in no particular order.
    ///
    /// The paper's indirect (secondary, tertiary, …) aggressors are the
    /// aggressors coupled to this cone (§1, Fig. 1).
    #[must_use]
    pub fn transitive_fanin(&self, net: NetId) -> Vec<NetId> {
        let mut seen = vec![false; self.nets.len()];
        let mut stack = vec![net];
        let mut cone = Vec::new();
        seen[net.index()] = true;
        while let Some(n) = stack.pop() {
            if let NetSource::Gate(g) = self.net(n).source() {
                for &input in self.gate(g).inputs() {
                    if !seen[input.index()] {
                        seen[input.index()] = true;
                        cone.push(input);
                        stack.push(input);
                    }
                }
            }
        }
        cone
    }

    /// Like [`transitive_fanin`](Self::transitive_fanin) but only
    /// traversing `depth` gate levels upstream.
    ///
    /// Noise iterations converge in a handful of rounds (industrial tools
    /// report 3–4), so indirect aggressors beyond a few logic levels
    /// rarely matter; a depth-limited cone keeps widener searches local.
    #[must_use]
    pub fn transitive_fanin_depth(&self, net: NetId, depth: usize) -> Vec<NetId> {
        let mut seen = vec![false; self.nets.len()];
        let mut frontier = vec![net];
        let mut cone = Vec::new();
        seen[net.index()] = true;
        for _ in 0..depth {
            let mut next = Vec::new();
            for n in frontier {
                if let NetSource::Gate(g) = self.net(n).source() {
                    for &input in self.gate(g).inputs() {
                        if !seen[input.index()] {
                            seen[input.index()] = true;
                            cone.push(input);
                            next.push(input);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        cone
    }

    /// Every net in the transitive fanout cone of `net`, **excluding**
    /// `net` itself, in no particular order: the output nets of every gate
    /// reachable downstream through load pins.
    ///
    /// The dual of [`transitive_fanin`](Self::transitive_fanin); what-if
    /// re-analysis invalidates this cone when a net's noise changes.
    #[must_use]
    pub fn transitive_fanout(&self, net: NetId) -> Vec<NetId> {
        let mut seen = vec![false; self.nets.len()];
        let mut stack = vec![net];
        let mut cone = Vec::new();
        seen[net.index()] = true;
        while let Some(n) = stack.pop() {
            for &g in self.net(n).loads() {
                let out = self.gate(g).output();
                if !seen[out.index()] {
                    seen[out.index()] = true;
                    cone.push(out);
                    stack.push(out);
                }
            }
        }
        cone
    }

    /// The dirty-set closure for incremental re-analysis: every net whose
    /// delay-noise state can change when the nets in `seeds` change,
    /// returned as a per-net flag vector (seeds included).
    ///
    /// Dirtiness propagates along two edge kinds until a fixpoint:
    ///
    /// * **gate-fanout edges** — a net's arrival feeds every gate it
    ///   loads, so those gates' output nets are dirty;
    /// * **coupling-adjacency edges** — a dirty net may inject different
    ///   noise through each incident coupling capacitor, so every net
    ///   coupled to it is dirty.
    ///
    /// Coupling edges point "backwards" relative to the topological order
    /// (an aggressor deep in the circuit can dirty a victim near the
    /// inputs), so a single topological pass is not enough — this runs a
    /// worklist to the fixpoint. Adjacency is taken from the full circuit,
    /// ignoring any coupling enable/disable state: a superset of the truly
    /// affected nets is conservative (extra nets merely get recomputed).
    #[must_use]
    pub fn dirty_closure(&self, seeds: &[NetId]) -> Vec<bool> {
        self.dirty_closure_filtered(seeds, |_| true)
    }

    /// [`Self::dirty_closure`] with a predicate restricting which coupling
    /// capacitors may propagate dirtiness.
    ///
    /// Gate-fanout edges always propagate; a coupling-adjacency edge
    /// through capacitor `cc` propagates only when `propagates(cc)` is
    /// true. The canonical use is mask-aware incremental re-analysis: a
    /// coupling disabled in *both* the before and after masks injects no
    /// noise in either world, so it cannot carry a state difference and
    /// its adjacency edge can be dropped (the flipped couplings' own
    /// endpoints must be in `seeds` — flipping is itself a difference).
    #[must_use]
    pub fn dirty_closure_filtered<F>(&self, seeds: &[NetId], propagates: F) -> Vec<bool>
    where
        F: Fn(CouplingId) -> bool,
    {
        let mut dirty = vec![false; self.nets.len()];
        self.dirty_closure_extend(&mut dirty, seeds, propagates);
        dirty
    }

    /// Extends an existing dirty closure in place with extra `seeds`.
    ///
    /// `dirty` must be a fixpoint of some *restriction* of `propagates`
    /// (fewer allowed couplings) whose newly allowed couplings all have
    /// both endpoints in `seeds`, or the all-false vector. Under that
    /// contract the result is exactly the from-scratch closure over the
    /// union of the original seeds and `seeds` with the wider predicate:
    /// the worklist is monotone, and a path through a newly allowed
    /// coupling restarts at one of its endpoints, which is seeded here.
    /// This is what lets a batch of what-if scenarios share the closure of
    /// a common changed-coupling prefix and pay only for the suffix.
    pub fn dirty_closure_extend<F>(&self, dirty: &mut [bool], seeds: &[NetId], propagates: F)
    where
        F: Fn(CouplingId) -> bool,
    {
        debug_assert_eq!(dirty.len(), self.nets.len());
        let mut work: Vec<NetId> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            if !dirty[s.index()] {
                dirty[s.index()] = true;
                work.push(s);
            }
        }
        while let Some(n) = work.pop() {
            for &g in self.net(n).loads() {
                let out = self.gate(g).output();
                if !dirty[out.index()] {
                    dirty[out.index()] = true;
                    work.push(out);
                }
            }
            for &cc in self.couplings_on(n) {
                if !propagates(cc) {
                    continue;
                }
                let Some(other) = self.coupling(cc).other(n) else { continue };
                if !dirty[other.index()] {
                    dirty[other.index()] = true;
                    work.push(other);
                }
            }
        }
    }

    /// Looks up a net by name (linear scan; intended for tests and small
    /// examples, not hot paths).
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_ids().find(|&n| self.net(n).name() == name)
    }

    /// One-line summary of the circuit's size.
    #[must_use]
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            gates: self.num_gates(),
            nets: self.num_nets(),
            couplings: self.num_couplings(),
            inputs: self.primary_inputs().count(),
            outputs: self.outputs.len(),
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stats())
    }
}

/// Size summary of a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// Gate instances.
    pub gates: usize,
    /// Nets.
    pub nets: usize,
    /// Coupling capacitors.
    pub couplings: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {} nets, {} coupling caps, {} inputs, {} outputs",
            self.gates, self.nets, self.couplings, self.inputs, self.outputs
        )
    }
}
