//! LUT-level execution and the emulation-time model.
//!
//! [`LutSimulator`] executes a mapped netlist cycle-accurately, which lets
//! the test suite verify that technology mapping preserved behaviour
//! bit-for-bit against the RTL simulator — our stand-in for bring-up on the
//! physical platform.
//!
//! [`EmulationTimeModel`] computes the quantity the paper reports in
//! Figure 3 for the emulation bars: the time to exercise the testbench on
//! the platform. Following the paper's methodology ("an estimate of power
//! emulation time was computed by measuring the time required to simulate
//! the testbench … and the time to run the design on a PC-based emulation
//! platform"), the estimate is
//!
//! ```text
//! T = cycles / f_emu + cycles × host_overhead
//! ```
//!
//! with the synthesis/place-and-route time reported separately (one-time
//! compile cost, excluded from the per-run comparison exactly as the
//! paper excludes it).

use crate::lut::LutNetlist;
use crate::timing::TimingReport;
use pe_util::PortError;
use std::time::Duration;

/// Cycle-accurate simulator for a mapped netlist.
#[derive(Debug)]
pub struct LutSimulator<'a> {
    netlist: &'a LutNetlist,
    values: Vec<bool>,
    mem_state: Vec<Vec<u64>>,
    dirty: bool,
    cycle: u64,
    settles: u64,
}

impl<'a> LutSimulator<'a> {
    /// Creates a simulator with flip-flops and BRAMs at their power-on
    /// values.
    pub fn new(netlist: &'a LutNetlist) -> Self {
        let mut values = vec![false; netlist.net_count()];
        for ff in netlist.ffs() {
            values[ff.q.index()] = ff.init;
        }
        let mem_state = netlist.brams().iter().map(|b| b.init.clone()).collect();
        Self {
            netlist,
            values,
            mem_state,
            dirty: true,
            cycle: 0,
            settles: 0,
        }
    }

    /// Number of clock edges stepped.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of LUT-network settle passes performed so far.
    pub fn settle_count(&self) -> u64 {
        self.settles
    }

    /// Observes this simulator's run counters into `registry`
    /// (`fpga.cycles`, `fpga.settle_passes` histograms). Call once at
    /// the end of a run.
    pub fn record_metrics(&self, registry: &pe_trace::Registry) {
        registry.histogram("fpga.cycles").observe(self.cycle);
        registry
            .histogram("fpga.settle_passes")
            .observe(self.settles);
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.settles += 1;
        for lut in self.netlist.luts() {
            let mut packed = 0u32;
            for (k, &n) in lut.inputs.iter().enumerate() {
                packed |= (self.values[n.index()] as u32) << k;
            }
            self.values[lut.output.index()] = lut.eval(packed);
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

    /// Drives an input bus by port name.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the value does not fit.
    pub fn set_input(&mut self, name: &str, value: u64) {
        self.try_set_input(name, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Reads an output bus by port name (settling first).
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if the port does not exist.
    pub fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        self.settle();
        let nets = self
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

    /// Reads an output bus by port name (settling first).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn output(&mut self, name: &str) -> u64 {
        self.try_output(name).unwrap_or_else(|e| panic!("{e}"))
    }

    fn bus_value(&self, nets: &[pe_gate::netlist::NetId]) -> u64 {
        nets.iter()
            .enumerate()
            .map(|(i, n)| (self.values[n.index()] as u64) << i)
            .sum()
    }

    /// Advances one clock edge on all domains.
    pub fn step(&mut self) {
        self.settle();
        let new_q: Vec<bool> = self
            .netlist
            .ffs()
            .iter()
            .map(|ff| self.values[ff.d.index()])
            .collect();
        let mem_ops: Vec<(u64, Option<(usize, u64)>)> = self
            .netlist
            .brams()
            .iter()
            .enumerate()
            .map(|(mi, bram)| {
                let raddr = self.bus_value(&bram.raddr) as usize % bram.words as usize;
                let read = self.mem_state[mi][raddr];
                let write = if self.values[bram.wen.index()] {
                    let waddr = self.bus_value(&bram.waddr) as usize % bram.words as usize;
                    Some((waddr, self.bus_value(&bram.wdata)))
                } else {
                    None
                };
                (read, write)
            })
            .collect();
        for (ff, q) in self.netlist.ffs().iter().zip(new_q) {
            self.values[ff.q.index()] = q;
        }
        for (mi, (bram, (read, write))) in self.netlist.brams().iter().zip(mem_ops).enumerate() {
            for (i, net) in bram.rdata.iter().enumerate() {
                self.values[net.index()] = (read >> i) & 1 == 1;
            }
            if let Some((addr, data)) = write {
                self.mem_state[mi][addr] = data;
            }
        }
        self.dirty = true;
        self.cycle += 1;
    }
}

/// Parameters of the platform's runtime behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulationTimeModel {
    /// Hard cap on the emulation clock (board/interface limit), MHz.
    pub fmax_cap_mhz: f64,
    /// Host-side time per emulated cycle when the testbench is
    /// co-simulated on the PC instead of mapped on-chip (seconds/cycle;
    /// 0 for an on-chip testbench).
    pub host_overhead_s_per_cycle: f64,
    /// Synthesis + place-and-route base time (seconds).
    pub compile_base_s: f64,
    /// Synthesis + place-and-route time per LUT (seconds).
    pub compile_per_lut_s: f64,
    /// Bitstream download time (seconds).
    pub download_s: f64,
}

impl Default for EmulationTimeModel {
    fn default() -> Self {
        Self {
            fmax_cap_mhz: 100.0,
            host_overhead_s_per_cycle: 0.0,
            compile_base_s: 45.0,
            compile_per_lut_s: 3.0e-3,
            download_s: 4.0,
        }
    }
}

/// The emulation-time estimate for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulationEstimate {
    /// Emulated cycles.
    pub cycles: u64,
    /// Emulation clock actually used (after caps and partition penalty),
    /// MHz.
    pub f_emu_mhz: f64,
    /// On-platform run time.
    pub run_time: Duration,
    /// Host-side testbench time.
    pub host_time: Duration,
    /// Run + host — the number comparable to a software
    /// estimator's wall time (the paper's Figure-3 emulation bar).
    pub total: Duration,
    /// One-time compile (synthesis + P&R) estimate, reported separately.
    pub compile_time: Duration,
    /// One-time bitstream download, reported separately.
    pub download_time: Duration,
}

impl EmulationEstimate {
    /// Emulated cycles per second of total time.
    pub fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.total.as_secs_f64().max(1e-12)
    }
}

/// Computes the emulation-time estimate for a mapped netlist.
///
/// `clock_divisor` comes from partitioning (1 for a single device). Energy
/// readback is on-chip: the accumulators are read once, after the run.
pub fn estimate_emulation_time(
    netlist: &LutNetlist,
    timing: &TimingReport,
    model: &EmulationTimeModel,
    cycles: u64,
    clock_divisor: u32,
) -> EmulationEstimate {
    let f_emu = (timing.fmax_mhz / clock_divisor.max(1) as f64).min(model.fmax_cap_mhz);
    let run_s = cycles as f64 / (f_emu * 1e6);
    let host_s = cycles as f64 * model.host_overhead_s_per_cycle;
    let compile_s = model.compile_base_s + model.compile_per_lut_s * netlist.luts().len() as f64;
    EmulationEstimate {
        cycles,
        f_emu_mhz: f_emu,
        run_time: Duration::from_secs_f64(run_s),
        host_time: Duration::from_secs_f64(host_s),
        total: Duration::from_secs_f64(run_s + host_s),
        compile_time: Duration::from_secs_f64(compile_s),
        download_time: Duration::from_secs_f64(model.download_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::map_to_luts;
    use crate::timing::analyze_timing;
    use pe_gate::expand::expand_design;
    use pe_rtl::builder::DesignBuilder;
    use pe_sim::Simulator;
    use pe_util::rng::Xoshiro;

    #[test]
    fn named_bus_lookups_report_errors() {
        let mut b = DesignBuilder::new("p");
        let a = b.input("a", 4);
        let n = b.not(a);
        b.output("y", n);
        let d = b.finish().unwrap();
        let mapped = map_to_luts(&expand_design(&d).netlist);
        let mut sim = LutSimulator::new(&mapped);
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
    fn mapped_netlist_matches_rtl_bit_for_bit() {
        let mut b = DesignBuilder::new("mix");
        let clk = b.clock("clk");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let sum = b.add_wide(x, y);
        let low = b.slice(sum, 0, 8);
        let acc = b.register_named("acc", 8, 0, clk);
        let nxt = b.xor(acc.q(), low);
        b.connect_d(acc, nxt);
        let lt = b.lt(x, y);
        let sel = b.mux2(lt, acc.q(), low);
        let a3 = b.slice(x, 0, 3);
        let wen = b.input("we", 1);
        let m = b.memory("m", 8, 8, Some(vec![9; 8]), clk);
        b.connect_mem(m, a3, a3, sel, wen);
        b.output("acc", acc.q());
        b.output("sel", sel);
        b.output("rd", m.rdata());
        let d = b.finish().unwrap();

        let mapped = map_to_luts(&expand_design(&d).netlist);
        let mut lsim = LutSimulator::new(&mapped);
        let mut rsim = Simulator::new(&d).unwrap();
        let mut rng = Xoshiro::new(99);
        for _ in 0..300 {
            let (xv, yv, wv) = (rng.bits(8), rng.bits(8), rng.bits(1));
            lsim.set_input("x", xv);
            lsim.set_input("y", yv);
            lsim.set_input("we", wv);
            rsim.set_input_by_name("x", xv);
            rsim.set_input_by_name("y", yv);
            rsim.set_input_by_name("we", wv);
            for port in ["acc", "sel", "rd"] {
                assert_eq!(lsim.output(port), rsim.output(port), "{port}");
            }
            lsim.step();
            rsim.step();
        }
        assert_eq!(lsim.cycle(), 300);
    }

    #[test]
    fn emulation_time_scales_with_cycles_and_divisor() {
        let mut b = DesignBuilder::new("add");
        let clk = b.clock("clk");
        let x = b.input("a", 16);
        let y = b.input("b", 16);
        let s = b.add(x, y);
        let q = b.pipeline_reg("q", s, 0, clk);
        b.output("s", q);
        let d = b.finish().unwrap();
        let mapped = map_to_luts(&expand_design(&d).netlist);
        let timing = analyze_timing(&mapped);
        let model = EmulationTimeModel::default();
        let e1 = estimate_emulation_time(&mapped, &timing, &model, 1_000_000, 1);
        let e2 = estimate_emulation_time(&mapped, &timing, &model, 2_000_000, 1);
        assert!((e2.total.as_secs_f64() / e1.total.as_secs_f64() - 2.0).abs() < 1e-9);
        let e_div = estimate_emulation_time(&mapped, &timing, &model, 1_000_000, 4);
        assert!(e_div.f_emu_mhz <= e1.f_emu_mhz / 3.9);
        // Compile time grows with area but is excluded from `total`.
        assert!(e1.compile_time.as_secs_f64() > model.compile_base_s);
        assert_eq!(e1.total, e1.run_time);
    }

    #[test]
    fn host_overhead_dominates_co_simulated_testbench() {
        let mut b = DesignBuilder::new("t");
        let clk = b.clock("clk");
        let x = b.input("a", 4);
        let q = b.pipeline_reg("q", x, 0, clk);
        b.output("q", q);
        let d = b.finish().unwrap();
        let mapped = map_to_luts(&expand_design(&d).netlist);
        let timing = analyze_timing(&mapped);
        let model = EmulationTimeModel {
            host_overhead_s_per_cycle: 1e-6,
            ..EmulationTimeModel::default()
        };
        let e = estimate_emulation_time(&mapped, &timing, &model, 1_000_000, 1);
        assert!(e.host_time.as_secs_f64() >= 1.0);
        assert!(e.total > e.run_time);
        assert!(e.cycles_per_second() < 1.1e6);
    }
}
