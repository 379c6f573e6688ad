//! Levelized gate simulation with switched-energy accounting.

use crate::cells::CellLibrary;
use crate::expand::ExpandedDesign;
use pe_util::PortError;

/// A zero-delay gate-level simulator.
///
/// Semantics mirror [`pe_sim::Simulator`]: combinational settle, then a
/// clock edge capturing flip-flops and memories. Energy is accounted per
/// cycle by comparing consecutive *settled* states (the standard zero-delay
/// toggle-count model; glitch power is outside this model's scope, as it is
/// for RTL macromodels):
///
/// * each gate-output toggle costs that cell's switching energy;
/// * each flip-flop costs clock-pin energy every cycle plus `q`-toggle
///   energy;
/// * each SRAM macro costs read energy every cycle, write energy when
///   `wen` is high, and leakage;
/// * every cell leaks for the duration of the cycle.
///
/// Energy is attributed to the RTL component that owns each cell, enabling
/// per-component power breakdowns and macromodel characterization.
#[derive(Debug)]
pub struct GateSimulator<'a> {
    expanded: &'a ExpandedDesign,
    lib: &'a CellLibrary,
    values: Vec<bool>,
    prev_settled: Vec<bool>,
    order: Vec<u32>,
    gate_owner: Vec<u32>, // owner + 1; 0 = unowned
    dff_owner: Vec<u32>,
    mem_owner: Vec<u32>,
    mem_state: Vec<Vec<u64>>,
    comp_energy_fj: Vec<f64>,
    cycle_energy_fj: f64,
    cycle_seq_energy_fj: f64,
    total_energy_fj: f64,
    leakage_fj_per_cycle: f64,
    period_ns: f64,
    cycle: u64,
    dirty: bool,
    toggles: u64,
}

impl<'a> GateSimulator<'a> {
    /// Creates a simulator with the default 10 ns clock period.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's combinational gates are cyclic (cannot
    /// happen for netlists produced by [`crate::expand::expand_design`]
    /// from a validated design).
    pub fn new(expanded: &'a ExpandedDesign, lib: &'a CellLibrary) -> Self {
        Self::with_period(expanded, lib, 10.0)
    }

    /// Creates a simulator with an explicit clock period in nanoseconds
    /// (used to convert leakage power into per-cycle energy).
    ///
    /// # Panics
    ///
    /// See [`GateSimulator::new`].
    pub fn with_period(expanded: &'a ExpandedDesign, lib: &'a CellLibrary, period_ns: f64) -> Self {
        let nl = &expanded.netlist;
        let order = levelize(nl);

        // Ownership maps.
        let mut gate_owner = vec![0u32; nl.gates().len()];
        let mut dff_owner = vec![0u32; nl.dffs().len()];
        let mut mem_owner = vec![0u32; nl.mems().len()];
        for comp in 0..expanded.component_count() {
            let cells = expanded.component_cells(comp);
            for &g in &cells.gates {
                gate_owner[g as usize] = comp as u32 + 1;
            }
            for &f in &cells.dffs {
                dff_owner[f as usize] = comp as u32 + 1;
            }
            for &m in &cells.mems {
                mem_owner[m as usize] = comp as u32 + 1;
            }
        }

        // Leakage per cycle: all cells leak continuously.
        let mut leak_nw = 0.0;
        for g in nl.gates() {
            leak_nw += lib.gate(g.kind).leakage_nw;
        }
        leak_nw += lib.dff().leakage_nw * nl.dffs().len() as f64;
        for m in nl.mems() {
            leak_nw += lib.mem_leakage_nw(m.words, m.wdata.len() as u32);
        }
        // nW × ns = 1e-18 J = 1e-3 fJ.
        let leakage_fj_per_cycle = leak_nw * period_ns * 1e-3;

        let mut values = vec![false; nl.net_count()];
        let mut mem_state = Vec::with_capacity(nl.mems().len());
        for dff in nl.dffs() {
            values[dff.q.index()] = dff.init;
        }
        for m in nl.mems() {
            mem_state.push(m.init.clone());
            // rdata power-on value: word 0 contents, mirroring the RTL
            // simulator's zero... registers read as 0 until first edge; we
            // leave rdata at 0 to match pe-sim.
        }

        let mut sim = Self {
            expanded,
            lib,
            values,
            prev_settled: Vec::new(),
            order,
            gate_owner,
            dff_owner,
            mem_owner,
            mem_state,
            comp_energy_fj: vec![0.0; expanded.component_count()],
            cycle_energy_fj: 0.0,
            cycle_seq_energy_fj: 0.0,
            total_energy_fj: 0.0,
            leakage_fj_per_cycle,
            period_ns,
            cycle: 0,
            dirty: true,
            toggles: 0,
        };
        sim.settle();
        sim.prev_settled = sim.values.clone();
        sim
    }

    /// The clock period used for leakage integration (nanoseconds).
    pub fn period_ns(&self) -> f64 {
        self.period_ns
    }

    /// Number of clock edges stepped.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Observes this simulator's run counters into `registry`
    /// (`gate.cycles`, `gate.output_toggles` histograms). Call once at
    /// the end of a run.
    pub fn record_metrics(&self, registry: &pe_trace::Registry) {
        registry.histogram("gate.cycles").observe(self.cycle);
        registry
            .histogram("gate.output_toggles")
            .observe(self.toggles);
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        let gates = self.expanded.netlist.gates();
        for &gi in &self.order {
            let g = &gates[gi as usize];
            let a = self.values[g.inputs[0].index()];
            let b = self.values[g.inputs[1].index()];
            let c = self.values[g.inputs[2].index()];
            self.values[g.output.index()] = g.kind.eval(a, b, c);
        }
        self.dirty = false;
    }

    /// Drives an input bus by port name.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchInput`] if the port does not exist, or
    /// [`PortError::ValueTooWide`] if the value does not fit.
    pub fn try_set_input(&mut self, name: &str, value: u64) -> Result<(), PortError> {
        let nets = self
            .expanded
            .netlist
            .inputs()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nets)| nets.clone())
            .ok_or_else(|| PortError::NoSuchInput(name.to_string()))?;
        if nets.len() < 64 && value >= (1u64 << nets.len()) {
            return Err(PortError::ValueTooWide {
                port: name.to_string(),
                value,
                width: nets.len() as u32,
            });
        }
        for (i, net) in nets.iter().enumerate() {
            let bit = (value >> i) & 1 == 1;
            if self.values[net.index()] != bit {
                self.values[net.index()] = bit;
                self.dirty = true;
            }
        }
        Ok(())
    }

    /// Reads an output bus by port name (settling first).
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if the port does not exist.
    pub fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        self.settle();
        let nets = self
            .expanded
            .netlist
            .outputs()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nets)| nets.clone())
            .ok_or_else(|| PortError::NoSuchOutput(name.to_string()))?;
        Ok(nets
            .iter()
            .enumerate()
            .map(|(i, net)| (self.values[net.index()] as u64) << i)
            .sum())
    }

    fn credit(&mut self, owner: u32, energy: f64) {
        if owner != 0 {
            self.comp_energy_fj[owner as usize - 1] += energy;
        }
        self.cycle_energy_fj += energy;
    }

    /// Advances one clock edge on all domains, accounting the cycle's
    /// energy. Returns the energy of the completed cycle in femtojoules.
    pub fn step(&mut self) -> f64 {
        self.settle();
        self.cycle_energy_fj = 0.0;
        self.cycle_seq_energy_fj = 0.0;

        // 1. Toggle energy of combinational gates vs the previous settled
        //    state.
        let gates = self.expanded.netlist.gates();
        for (gi, g) in gates.iter().enumerate() {
            let net = g.output.index();
            if self.values[net] != self.prev_settled[net] {
                let e = self.lib.gate(g.kind).toggle_energy_fj;
                self.credit(self.gate_owner[gi], e);
                self.toggles += 1;
            }
        }

        // 2. Sequential capture with flip-flop/memory energies.
        let dffs = self.expanded.netlist.dffs().to_vec();
        let dff_spec = self.lib.dff();
        let dff_clk = self.lib.dff_clock_energy_fj();
        let mut new_q = Vec::with_capacity(dffs.len());
        for (fi, dff) in dffs.iter().enumerate() {
            let d = self.values[dff.d.index()];
            let q = self.values[dff.q.index()];
            self.credit(self.dff_owner[fi], dff_clk);
            self.cycle_seq_energy_fj += dff_clk;
            if d != q {
                self.credit(self.dff_owner[fi], dff_spec.toggle_energy_fj);
                self.cycle_seq_energy_fj += dff_spec.toggle_energy_fj;
            }
            new_q.push(d);
        }
        let mems = self.expanded.netlist.mems().to_vec();
        let mut mem_updates = Vec::with_capacity(mems.len());
        for (mi, mem) in mems.iter().enumerate() {
            let width = mem.wdata.len() as u32;
            let raddr = self.bus_value(&mem.raddr) as usize % mem.words as usize;
            let read = self.mem_state[mi][raddr];
            self.credit(self.mem_owner[mi], self.lib.mem_read_energy_fj(width));
            self.cycle_seq_energy_fj += self.lib.mem_read_energy_fj(width);
            let write = if self.values[mem.wen.index()] {
                let waddr = self.bus_value(&mem.waddr) as usize % mem.words as usize;
                self.credit(self.mem_owner[mi], self.lib.mem_write_energy_fj(width));
                self.cycle_seq_energy_fj += self.lib.mem_write_energy_fj(width);
                Some((waddr, self.bus_value(&mem.wdata)))
            } else {
                None
            };
            mem_updates.push((read, write));
        }

        // 3. Leakage for the cycle (no component owns it).
        self.cycle_energy_fj += self.leakage_fj_per_cycle;

        // 4. Commit: apply sequential updates, then snapshot. Gate-toggle
        // accounting only ever compares *gate output* nets, and DFF q /
        // BRAM rdata nets have no driving gate, so snapshotting after the
        // q/rdata writes is safe and saves a second full-array copy in
        // this hottest of loops.
        for (dff, q) in dffs.iter().zip(new_q) {
            self.values[dff.q.index()] = q;
        }
        for (mi, (mem, (read, write))) in mems.iter().zip(mem_updates).enumerate() {
            for (i, net) in mem.rdata.iter().enumerate() {
                let bit = (read >> i) & 1 == 1;
                self.values[net.index()] = bit;
            }
            if let Some((addr, data)) = write {
                self.mem_state[mi][addr] = data;
            }
        }
        self.prev_settled.copy_from_slice(&self.values);
        self.dirty = true;
        self.cycle += 1;
        self.total_energy_fj += self.cycle_energy_fj;
        self.cycle_energy_fj
    }

    fn bus_value(&self, nets: &[crate::netlist::NetId]) -> u64 {
        nets.iter()
            .enumerate()
            .map(|(i, n)| (self.values[n.index()] as u64) << i)
            .sum()
    }

    /// Energy of the most recently completed cycle (femtojoules).
    pub fn last_cycle_energy_fj(&self) -> f64 {
        self.cycle_energy_fj
    }

    /// Split of the last cycle's energy into
    /// `(combinational, sequential, leakage)` femtojoules. The sequential
    /// share (flip-flop clock/capture, memory access) is spent *at* the
    /// clock edge, which matters when aligning energies with observed
    /// output transitions during macromodel characterization.
    pub fn last_cycle_split_fj(&self) -> (f64, f64, f64) {
        let comb = self.cycle_energy_fj - self.cycle_seq_energy_fj - self.leakage_fj_per_cycle;
        (
            comb.max(0.0),
            self.cycle_seq_energy_fj,
            self.leakage_fj_per_cycle,
        )
    }

    /// Total energy since construction (femtojoules).
    pub fn total_energy_fj(&self) -> f64 {
        self.total_energy_fj
    }

    /// Cumulative energy attributed to RTL component `index`.
    pub fn component_energy_fj(&self, index: usize) -> f64 {
        self.comp_energy_fj[index]
    }

    /// Average power over the run so far, in microwatts
    /// (fJ / ns ≡ µW).
    pub fn average_power_uw(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.total_energy_fj / (self.cycle as f64 * self.period_ns)
    }
}

/// Kahn levelization of a gate netlist's combinational gates: a topological
/// evaluation order. Nets driven by inputs, DFF `q`, or memory `rdata` are
/// sources. Shared by the serial and 64-lane wide simulators so both
/// evaluate gates in the identical order.
///
/// # Panics
///
/// Panics if the netlist's combinational gates are cyclic (cannot happen
/// for netlists produced by [`crate::expand::expand_design`] from a
/// validated design).
pub(crate) fn levelize(nl: &crate::netlist::GateNetlist) -> Vec<u32> {
    let mut driver: Vec<Option<u32>> = vec![None; nl.net_count()];
    for (i, g) in nl.gates().iter().enumerate() {
        driver[g.output.index()] = Some(i as u32);
    }
    let n_gates = nl.gates().len();
    let mut in_deg = vec![0u32; n_gates];
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n_gates];
    for (i, g) in nl.gates().iter().enumerate() {
        for slot in 0..g.kind.arity() {
            if let Some(drv) = driver[g.inputs[slot].index()] {
                consumers[drv as usize].push(i as u32);
                in_deg[i] += 1;
            }
        }
    }
    let mut order: Vec<u32> = (0..n_gates as u32)
        .filter(|&i| in_deg[i as usize] == 0)
        .collect();
    let mut head = 0;
    while head < order.len() {
        let g = order[head];
        head += 1;
        for &c in &consumers[g as usize] {
            in_deg[c as usize] -= 1;
            if in_deg[c as usize] == 0 {
                order.push(c);
            }
        }
    }
    assert_eq!(order.len(), n_gates, "combinational loop in gate netlist");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand_design;
    use pe_rtl::builder::DesignBuilder;
    use pe_sim::Simulator;
    use pe_util::rng::Xoshiro;

    fn lib() -> CellLibrary {
        CellLibrary::cmos130()
    }

    #[test]
    fn named_bus_lookups_report_errors() {
        let mut b = DesignBuilder::new("p");
        let a = b.input("a", 4);
        let n = b.not(a);
        b.output("y", n);
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut sim = GateSimulator::new(&ex, &lib);
        assert_eq!(
            sim.try_set_input("nope", 0),
            Err(PortError::NoSuchInput("nope".into()))
        );
        assert_eq!(
            sim.try_set_input("a", 0x10),
            Err(PortError::ValueTooWide {
                port: "a".into(),
                value: 0x10,
                width: 4
            })
        );
        assert_eq!(
            sim.try_output("nope"),
            Err(PortError::NoSuchOutput("nope".into()))
        );
        sim.try_set_input("a", 0x5).unwrap();
        assert_eq!(sim.try_output("y"), Ok(0xA));
    }

    #[test]
    fn adder_matches_rtl_on_random_vectors() {
        let mut b = DesignBuilder::new("add");
        let a = b.input("a", 12);
        let c = b.input("b", 12);
        let s = b.add_wide(a, c);
        b.output("s", s);
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        let mut rsim = Simulator::new(&d).unwrap();
        let mut rng = Xoshiro::new(1);
        for _ in 0..200 {
            let (x, y) = (rng.bits(12), rng.bits(12));
            gsim.try_set_input("a", x).unwrap();
            gsim.try_set_input("b", y).unwrap();
            rsim.set_input_by_name("a", x);
            rsim.set_input_by_name("b", y);
            assert_eq!(
                gsim.try_output("s").unwrap(),
                rsim.output("s"),
                "a={x} b={y}"
            );
        }
    }

    #[test]
    fn subtract_multiply_compare_match_rtl() {
        let mut b = DesignBuilder::new("alu");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let sub = b.sub(a, c);
        let mul = b.mul(a, c, 16);
        let lt = b.lt(a, c);
        let slt = b.slt(a, c);
        let le = b.le(a, c);
        let sle = b.sle(a, c);
        let eq = b.eq(a, c);
        let ne = b.ne(a, c);
        b.output("sub", sub);
        b.output("mul", mul);
        b.output("lt", lt);
        b.output("slt", slt);
        b.output("le", le);
        b.output("sle", sle);
        b.output("eq", eq);
        b.output("ne", ne);
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        let mut rsim = Simulator::new(&d).unwrap();
        let mut rng = Xoshiro::new(2);
        for _ in 0..300 {
            let (x, y) = (rng.bits(8), rng.bits(8));
            gsim.try_set_input("a", x).unwrap();
            gsim.try_set_input("b", y).unwrap();
            rsim.set_input_by_name("a", x);
            rsim.set_input_by_name("b", y);
            for port in ["sub", "mul", "lt", "slt", "le", "sle", "eq", "ne"] {
                assert_eq!(
                    gsim.try_output(port).unwrap(),
                    rsim.output(port),
                    "{port} a={x} b={y}"
                );
            }
        }
    }

    #[test]
    fn shifts_and_mux_match_rtl() {
        let mut b = DesignBuilder::new("sh");
        let a = b.input("a", 8);
        let amt = b.input("amt", 4);
        let sel = b.input("sel", 2);
        let shl = b.shl(a, amt);
        let shr = b.shr(a, amt);
        let sar = b.sar(a, amt);
        let c1 = b.constant(0x11, 8);
        let c2 = b.constant(0x22, 8);
        let m = b.mux(sel, &[a, c1, c2]); // 3 inputs, 2-bit select → clamp
        b.output("shl", shl);
        b.output("shr", shr);
        b.output("sar", sar);
        b.output("m", m);
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        let mut rsim = Simulator::new(&d).unwrap();
        let mut rng = Xoshiro::new(3);
        for _ in 0..300 {
            let (x, k, s) = (rng.bits(8), rng.bits(4), rng.bits(2));
            gsim.try_set_input("a", x).unwrap();
            gsim.try_set_input("amt", k).unwrap();
            gsim.try_set_input("sel", s).unwrap();
            rsim.set_input_by_name("a", x);
            rsim.set_input_by_name("amt", k);
            rsim.set_input_by_name("sel", s);
            for port in ["shl", "shr", "sar", "m"] {
                assert_eq!(
                    gsim.try_output(port).unwrap(),
                    rsim.output(port),
                    "{port} a={x} amt={k} sel={s}"
                );
            }
        }
    }

    #[test]
    fn sequential_counter_matches_rtl_and_burns_energy() {
        let mut b = DesignBuilder::new("counter");
        let clk = b.clock("clk");
        let one = b.constant(1, 8);
        let count = b.register_named("count", 8, 0, clk);
        let next = b.add(count.q(), one);
        b.connect_d(count, next);
        b.output("count", count.q());
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        let mut rsim = Simulator::new(&d).unwrap();
        for _ in 0..50 {
            gsim.step();
            rsim.step();
            assert_eq!(gsim.try_output("count").unwrap(), rsim.output("count"));
        }
        assert!(gsim.total_energy_fj() > 0.0);
        assert!(gsim.average_power_uw() > 0.0);
        // The register component earned clock energy at minimum.
        let reg_idx = d.find_component("count_reg").unwrap().index();
        assert!(gsim.component_energy_fj(reg_idx) > 0.0);
    }

    #[test]
    fn memory_behaviour_matches_rtl() {
        let mut b = DesignBuilder::new("mem");
        let clk = b.clock("clk");
        let ra = b.input("ra", 3);
        let wa = b.input("wa", 3);
        let wd = b.input("wd", 8);
        let we = b.input("we", 1);
        let m = b.memory("m", 8, 8, Some(vec![1, 2, 3, 4, 5, 6, 7, 8]), clk);
        b.connect_mem(m, ra, wa, wd, we);
        b.output("rd", m.rdata());
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        let mut rsim = Simulator::new(&d).unwrap();
        let mut rng = Xoshiro::new(4);
        for _ in 0..100 {
            let (ra_v, wa_v, wd_v, we_v) = (rng.bits(3), rng.bits(3), rng.bits(8), rng.bits(1));
            for (sim_set, val) in [("ra", ra_v), ("wa", wa_v), ("wd", wd_v), ("we", we_v)] {
                gsim.try_set_input(sim_set, val).unwrap();
                rsim.set_input_by_name(sim_set, val);
            }
            gsim.step();
            rsim.step();
            assert_eq!(gsim.try_output("rd").unwrap(), rsim.output("rd"));
        }
    }

    #[test]
    fn idle_circuit_burns_only_clock_and_leakage() {
        let mut b = DesignBuilder::new("idle");
        let clk = b.clock("clk");
        let x = b.input("x", 8);
        let q = b.pipeline_reg("q", x, 0, clk);
        b.output("q", q);
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        gsim.try_set_input("x", 0).unwrap();
        gsim.step(); // settle into steady state
        let e_idle = gsim.step();
        // 8 DFFs × clock energy + leakage; no toggles.
        let expected = 8.0 * lib.dff_clock_energy_fj();
        assert!(e_idle >= expected, "idle energy {e_idle} < clock floor");
        // Now toggle all data bits: energy must rise.
        gsim.try_set_input("x", 0xFF).unwrap();
        let e_active = gsim.step();
        assert!(
            e_active > e_idle + 8.0,
            "active {e_active} vs idle {e_idle}"
        );
    }

    #[test]
    fn table_lookup_matches_rtl() {
        let table: Vec<u64> = (0..16).map(|i| (i * 7 + 3) % 16).collect();
        let mut b = DesignBuilder::new("rom");
        let a = b.input("a", 4);
        let t = b.table(a, table.clone(), 4);
        b.output("y", t);
        let d = b.finish().unwrap();
        let ex = expand_design(&d);
        let lib = lib();
        let mut gsim = GateSimulator::new(&ex, &lib);
        for i in 0..16u64 {
            gsim.try_set_input("a", i).unwrap();
            assert_eq!(gsim.try_output("y").unwrap(), table[i as usize]);
        }
    }
}
