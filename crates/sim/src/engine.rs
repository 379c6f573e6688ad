//! The two-phase synchronous simulation engine.

use pe_rtl::{ComponentId, ComponentKind, Design, DesignError, SignalId};
use pe_util::PortError;

/// Pre-compiled evaluation record for one combinational component.
#[derive(Debug)]
struct CompiledOp {
    comp: ComponentId,
    inputs: Vec<u32>,
    in_widths: Vec<u32>,
    output: u32,
    out_width: u32,
}

/// Pre-compiled record for a register.
#[derive(Debug)]
struct CompiledReg {
    d: u32,
    en: Option<u32>,
    q: u32,
    clock: u32,
}

/// Pre-compiled record for a memory.
#[derive(Debug)]
struct CompiledMem {
    raddr: u32,
    waddr: u32,
    wdata: u32,
    wen: u32,
    rdata: u32,
    words: u32,
    clock: u32,
    state_index: usize,
}

/// Pending memory commit: the `rdata` value slot, the captured read
/// value, and an optional `(bank, addr, data)` write.
type MemNext = (u32, u64, Option<(usize, usize, u64)>);

/// A cycle-accurate simulator for a [`Design`].
///
/// The simulator borrows the design. Signal values are `u64` words masked
/// to their width. Combinational logic settles lazily: any read through
/// [`Simulator::value`] (or friends) first re-evaluates the combinational
/// network if an input changed or a clock edge occurred since the last
/// settle, so observed values are always consistent.
#[derive(Debug)]
pub struct Simulator<'a> {
    design: &'a Design,
    values: Vec<u64>,
    ops: Vec<CompiledOp>,
    regs: Vec<CompiledReg>,
    mems: Vec<CompiledMem>,
    mem_state: Vec<Vec<u64>>,
    dirty: bool,
    cycle: u64,
    settles: u64,
}

impl<'a> Simulator<'a> {
    /// Compiles a design for simulation. Registers take their `init`
    /// values and memories their initial contents (zeros when unspecified).
    ///
    /// # Errors
    ///
    /// Returns the design's validation error if it is not a well-formed
    /// synchronous netlist (undriven signals, combinational cycles, …).
    pub fn new(design: &'a Design) -> Result<Self, DesignError> {
        design.validate()?;
        let order = pe_rtl::topo_order(design)?;
        let mut ops = Vec::with_capacity(order.len());
        for id in order {
            let comp = design.component(id);
            ops.push(CompiledOp {
                comp: id,
                inputs: comp.inputs().iter().map(|s| s.index() as u32).collect(),
                in_widths: comp
                    .inputs()
                    .iter()
                    .map(|s| design.signal(*s).width())
                    .collect(),
                output: comp.output().index() as u32,
                out_width: design.signal(comp.output()).width(),
            });
        }
        let mut regs = Vec::new();
        let mut mems = Vec::new();
        let mut mem_state = Vec::new();
        let mut values = vec![0u64; design.signals().len()];
        for comp in design.components() {
            match comp.kind() {
                ComponentKind::Register { init, has_enable } => {
                    values[comp.output().index()] = init.unwrap_or(0);
                    regs.push(CompiledReg {
                        d: comp.inputs()[0].index() as u32,
                        en: has_enable.then(|| comp.inputs()[1].index() as u32),
                        q: comp.output().index() as u32,
                        clock: comp.clock().expect("registers are clocked").index() as u32,
                    });
                }
                ComponentKind::Memory { words, init } => {
                    let state = match init {
                        Some(init) => init.clone(),
                        None => vec![0u64; *words as usize],
                    };
                    mems.push(CompiledMem {
                        raddr: comp.inputs()[0].index() as u32,
                        waddr: comp.inputs()[1].index() as u32,
                        wdata: comp.inputs()[2].index() as u32,
                        wen: comp.inputs()[3].index() as u32,
                        rdata: comp.output().index() as u32,
                        words: *words,
                        clock: comp.clock().expect("memories are clocked").index() as u32,
                        state_index: mem_state.len(),
                    });
                    mem_state.push(state);
                }
                _ => {}
            }
        }
        Ok(Self {
            design,
            values,
            ops,
            regs,
            mems,
            mem_state,
            dirty: true,
            cycle: 0,
            settles: 0,
        })
    }

    /// The design under simulation.
    pub fn design(&self) -> &'a Design {
        self.design
    }

    /// Number of clock edges stepped so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of combinational settle passes performed so far. Settling
    /// is lazy, so this exposes how much evaluation a workload actually
    /// triggered (read-heavy testbenches settle more often than cycle
    /// count alone suggests).
    pub fn settle_count(&self) -> u64 {
        self.settles
    }

    /// Observes this simulator's run counters into `registry`
    /// (`sim.cycles`, `sim.settle_passes` histograms). Call once at the
    /// end of a run; each call contributes one observation per metric.
    pub fn record_metrics(&self, registry: &pe_trace::Registry) {
        registry.histogram("sim.cycles").observe(self.cycle);
        registry
            .histogram("sim.settle_passes")
            .observe(self.settles);
    }

    /// Drives a top-level input signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not input-driven or `value` does not fit its
    /// width — both are testbench bugs.
    pub fn set_input(&mut self, signal: SignalId, value: u64) {
        assert!(
            self.design.is_input_driven(signal),
            "signal `{}` is not a top-level input",
            self.design.signal(signal).name()
        );
        assert!(
            self.design.value_fits(signal, value),
            "value {:#x} does not fit `{}` ({} bits)",
            value,
            self.design.signal(signal).name(),
            self.design.signal(signal).width()
        );
        if self.values[signal.index()] != value {
            self.values[signal.index()] = value;
            self.dirty = true;
        }
    }

    /// Drives a top-level input by port name.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchInput`] if no such input port exists, or
    /// [`PortError::ValueTooWide`] if the value does not fit.
    pub fn try_set_input_by_name(&mut self, name: &str, value: u64) -> Result<(), PortError> {
        let sig = self
            .design
            .find_input(name)
            .ok_or_else(|| PortError::NoSuchInput(name.to_string()))?;
        if !self.design.value_fits(sig, value) {
            return Err(PortError::ValueTooWide {
                port: name.to_string(),
                value,
                width: self.design.signal(sig).width(),
            });
        }
        self.set_input(sig, value);
        Ok(())
    }

    /// Drives a top-level input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no such input port exists (see [`Simulator::set_input`]
    /// for value checks).
    pub fn set_input_by_name(&mut self, name: &str, value: u64) {
        self.try_set_input_by_name(name, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.settles += 1;
        let mut ins: Vec<u64> = Vec::with_capacity(8);
        for op in &self.ops {
            ins.clear();
            ins.extend(op.inputs.iter().map(|&i| self.values[i as usize]));
            let comp = self.design.component(op.comp);
            let out = comp.kind().eval(&ins, &op.in_widths, op.out_width);
            self.values[op.output as usize] = out;
        }
        self.dirty = false;
    }

    /// Current value of a signal (settling first if needed).
    pub fn value(&mut self, signal: SignalId) -> u64 {
        self.settle();
        self.values[signal.index()]
    }

    /// Current value of a named output port.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if no such output port exists.
    pub fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        let sig = self
            .design
            .find_output(name)
            .ok_or_else(|| PortError::NoSuchOutput(name.to_string()))?;
        Ok(self.value(sig))
    }

    /// Current value of a named output port.
    ///
    /// # Panics
    ///
    /// Panics if no such output port exists.
    pub fn output(&mut self, name: &str) -> u64 {
        self.try_output(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Settles and returns a consistent snapshot of **all** signal values,
    /// indexed by [`SignalId::index`]. This is the hot call of software
    /// power estimation: every macromodel reads its component's I/O from
    /// this slice.
    pub fn values(&mut self) -> &[u64] {
        self.settle();
        &self.values
    }

    /// Advances one clock edge on **all** clock domains (the common
    /// single-clock case).
    pub fn step(&mut self) {
        self.step_domains(None);
    }

    /// Advances one clock edge on the given domain only.
    pub fn step_clock(&mut self, clock: pe_rtl::ClockId) {
        self.step_domains(Some(clock.index() as u32));
    }

    fn step_domains(&mut self, only: Option<u32>) {
        self.settle();
        // Capture phase: compute every sequential next-value from the
        // settled state, then commit — models simultaneous edges.
        let mut reg_next: Vec<(u32, u64)> = Vec::with_capacity(self.regs.len());
        for reg in &self.regs {
            if only.is_some_and(|c| c != reg.clock) {
                continue;
            }
            let enabled = reg.en.is_none_or(|en| self.values[en as usize] != 0);
            if enabled {
                reg_next.push((reg.q, self.values[reg.d as usize]));
            }
        }
        let mut mem_next: Vec<MemNext> = Vec::with_capacity(self.mems.len());
        for mem in &self.mems {
            if only.is_some_and(|c| c != mem.clock) {
                continue;
            }
            let raddr = self.values[mem.raddr as usize] as usize % mem.words as usize;
            let read = self.mem_state[mem.state_index][raddr];
            let write = if self.values[mem.wen as usize] != 0 {
                let waddr = self.values[mem.waddr as usize] as usize % mem.words as usize;
                Some((mem.state_index, waddr, self.values[mem.wdata as usize]))
            } else {
                None
            };
            mem_next.push((mem.rdata, read, write));
        }
        for (q, v) in reg_next {
            self.values[q as usize] = v;
        }
        for (rdata, read, write) in mem_next {
            self.values[rdata as usize] = read;
            if let Some((state, addr, data)) = write {
                self.mem_state[state][addr] = data;
            }
        }
        self.cycle += 1;
        self.dirty = true;
    }

    /// Runs `n` clock edges on all domains.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets the simulator to power-on state: registers to `init`,
    /// memories to initial contents, inputs to zero, cycle counter to 0.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = 0;
        }
        for comp in self.design.components() {
            if let ComponentKind::Register { init, .. } = comp.kind() {
                self.values[comp.output().index()] = init.unwrap_or(0);
            }
        }
        for mem in &self.mems {
            let comp = self
                .design
                .components()
                .iter()
                .find(|c| c.output().index() == mem.rdata as usize)
                .expect("memory component exists");
            if let ComponentKind::Memory { init, words } = comp.kind() {
                self.mem_state[mem.state_index] = match init {
                    Some(init) => init.clone(),
                    None => vec![0u64; *words as usize],
                };
            }
        }
        self.cycle = 0;
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_rtl::builder::DesignBuilder;

    fn counter() -> Design {
        let mut b = DesignBuilder::new("counter");
        let clk = b.clock("clk");
        let one = b.constant(1, 8);
        let count = b.register_named("count", 8, 0, clk);
        let next = b.add(count.q(), one);
        b.connect_d(count, next);
        b.output("count", count.q());
        b.finish().unwrap()
    }

    #[test]
    fn named_port_lookups_report_errors() {
        let d = counter();
        let mut sim = Simulator::new(&d).unwrap();
        assert_eq!(
            sim.try_set_input_by_name("reset", 1),
            Err(PortError::NoSuchInput("reset".into()))
        );
        assert_eq!(
            sim.try_output("cout"),
            Err(PortError::NoSuchOutput("cout".into()))
        );
        assert_eq!(sim.try_output("count"), Ok(0));
        // Width check goes through the error channel too.
        let mut b = DesignBuilder::new("w");
        let x = b.input("x", 4);
        b.output("y", x);
        let dw = b.finish().unwrap();
        let mut simw = Simulator::new(&dw).unwrap();
        assert_eq!(
            simw.try_set_input_by_name("x", 0x10),
            Err(PortError::ValueTooWide {
                port: "x".into(),
                value: 0x10,
                width: 4
            })
        );
        assert_eq!(simw.try_set_input_by_name("x", 0xF), Ok(()));
        assert_eq!(simw.try_output("y"), Ok(0xF));
    }

    #[test]
    fn counter_counts_and_wraps() {
        let d = counter();
        let mut sim = Simulator::new(&d).unwrap();
        assert_eq!(sim.output("count"), 0);
        sim.step_n(10);
        assert_eq!(sim.output("count"), 10);
        sim.step_n(246);
        assert_eq!(sim.output("count"), 0); // 256 wraps
        assert_eq!(sim.cycle(), 256);
    }

    #[test]
    fn combinational_logic_settles_through_chain() {
        let mut b = DesignBuilder::new("chain");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let sum = b.add(a, c);
        let doubled = b.shl_const(sum, 1);
        let inv = b.not(doubled);
        b.output("y", inv);
        let d = b.finish().unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.set_input_by_name("a", 3);
        sim.set_input_by_name("b", 4);
        assert_eq!(sim.output("y"), !(14u64) & 0xFF);
        sim.set_input_by_name("a", 5);
        assert_eq!(sim.output("y"), !(18u64) & 0xFF);
    }

    #[test]
    fn register_enable_gates_updates() {
        let mut b = DesignBuilder::new("en");
        let clk = b.clock("clk");
        let x = b.input("x", 8);
        let en = b.input("en", 1);
        let r = b.register_named("r", 8, 7, clk);
        b.connect_d_en(r, x, en);
        b.output("q", r.q());
        let d = b.finish().unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        assert_eq!(sim.output("q"), 7); // init value
        sim.set_input_by_name("x", 42);
        sim.set_input_by_name("en", 0);
        sim.step();
        assert_eq!(sim.output("q"), 7); // gated
        sim.set_input_by_name("en", 1);
        sim.step();
        assert_eq!(sim.output("q"), 42);
    }

    #[test]
    fn memory_read_first_semantics() {
        let mut b = DesignBuilder::new("mem");
        let clk = b.clock("clk");
        let raddr = b.input("raddr", 2);
        let waddr = b.input("waddr", 2);
        let wdata = b.input("wdata", 8);
        let wen = b.input("wen", 1);
        let m = b.memory("m", 4, 8, Some(vec![10, 11, 12, 13]), clk);
        b.connect_mem(m, raddr, waddr, wdata, wen);
        b.output("rdata", m.rdata());
        let d = b.finish().unwrap();
        let mut sim = Simulator::new(&d).unwrap();

        // Read address 2 while writing 99 to address 2 in the same cycle:
        // read-first returns the old contents.
        sim.set_input_by_name("raddr", 2);
        sim.set_input_by_name("waddr", 2);
        sim.set_input_by_name("wdata", 99);
        sim.set_input_by_name("wen", 1);
        sim.step();
        assert_eq!(sim.output("rdata"), 12);
        // Next cycle the write has landed.
        sim.set_input_by_name("wen", 0);
        sim.step();
        assert_eq!(sim.output("rdata"), 99);
    }

    #[test]
    fn register_chain_shifts_one_per_edge() {
        let mut b = DesignBuilder::new("shift");
        let clk = b.clock("clk");
        let x = b.input("x", 4);
        let s1 = b.pipeline_reg("s1", x, 0, clk);
        let s2 = b.pipeline_reg("s2", s1, 0, clk);
        b.output("y", s2);
        let d = b.finish().unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.set_input_by_name("x", 9);
        sim.step();
        assert_eq!(sim.output("y"), 0); // only s1 captured
        sim.step();
        assert_eq!(sim.output("y"), 9); // now s2
    }

    #[test]
    fn multi_clock_domains_step_independently() {
        let mut b = DesignBuilder::new("dual");
        let fast = b.clock("fast");
        let slow = b.clock("slow");
        let one = b.constant(1, 8);
        let cf = b.register_named("cf", 8, 0, fast);
        let nf = b.add(cf.q(), one);
        b.connect_d(cf, nf);
        let cs = b.register_named("cs", 8, 0, slow);
        let ns = b.add(cs.q(), one);
        b.connect_d(cs, ns);
        b.output("cf", cf.q());
        b.output("cs", cs.q());
        let d = b.finish().unwrap();
        let fast_id = d.find_clock("fast").unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.step_clock(fast_id);
        sim.step_clock(fast_id);
        assert_eq!(sim.output("cf"), 2);
        assert_eq!(sim.output("cs"), 0);
        sim.step(); // both
        assert_eq!(sim.output("cf"), 3);
        assert_eq!(sim.output("cs"), 1);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let d = counter();
        let mut sim = Simulator::new(&d).unwrap();
        sim.step_n(5);
        assert_eq!(sim.output("count"), 5);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.output("count"), 0);
        sim.step();
        assert_eq!(sim.output("count"), 1);
    }

    #[test]
    #[should_panic(expected = "not a top-level input")]
    fn driving_internal_signal_panics() {
        let d = counter();
        let mut sim = Simulator::new(&d).unwrap();
        let internal = d.find_signal("count").unwrap();
        sim.set_input(internal, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut b = DesignBuilder::new("t");
        let a = b.input("a", 4);
        b.output("y", a);
        let d = b.finish().unwrap();
        let mut sim = Simulator::new(&d).unwrap();
        sim.set_input_by_name("a", 16);
    }
}
