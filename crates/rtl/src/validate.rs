//! Global design validation: combinational topological ordering and
//! driver coverage. These are the primitive analyses shared by
//! [`Design::validate`] and the `pe-lint` rule engine.

use crate::design::{ComponentId, Design, DesignError, SignalId};

/// Returns every signal that has no driver: neither a design input nor
/// any component's output. Sorted by signal index.
pub fn undriven_signals(design: &Design) -> Vec<SignalId> {
    design
        .signal_ids()
        .filter(|&s| design.driver_of(s).is_none() && !design.is_input_driven(s))
        .collect()
}

/// Computes a topological evaluation order of the *combinational*
/// components: if component `B` reads a signal driven by combinational
/// component `A`, then `A` precedes `B`. Sequential component outputs
/// (register `q`, memory read data) are treated as sources — they break
/// cycles, which is exactly how a synchronous circuit settles.
///
/// Sequential components are not part of the returned order.
///
/// # Errors
///
/// Returns [`DesignError::CombinationalCycle`] naming one component on a
/// cycle if the combinational subgraph is cyclic.
pub fn topo_order(design: &Design) -> Result<Vec<ComponentId>, DesignError> {
    let comps = design.components();
    let n = comps.len();
    // in_degree over combinational components only.
    let mut in_degree = vec![0u32; n];
    // For each combinational component, the combinational components that
    // consume its output.
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut comb = vec![false; n];
    for (i, c) in comps.iter().enumerate() {
        comb[i] = !c.kind().is_sequential();
    }
    for (i, c) in comps.iter().enumerate() {
        if !comb[i] {
            continue;
        }
        for sig in c.inputs() {
            if let Some(drv) = design.driver_of(*sig) {
                if comb[drv.index()] {
                    consumers[drv.index()].push(i as u32);
                    in_degree[i] += 1;
                }
            }
        }
    }
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&i| comb[i as usize] && in_degree[i as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        order.push(ComponentId(i));
        for &consumer in &consumers[i as usize] {
            in_degree[consumer as usize] -= 1;
            if in_degree[consumer as usize] == 0 {
                queue.push(consumer);
            }
        }
    }
    let comb_count = comb.iter().filter(|&&c| c).count();
    if order.len() != comb_count {
        // Some combinational component retained non-zero in-degree: cycle.
        let cyclic = (0..n)
            .find(|&i| comb[i] && in_degree[i] > 0)
            .expect("cycle implies a stuck component");
        return Err(DesignError::CombinationalCycle {
            component: comps[cyclic].name().to_string(),
        });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentKind;
    use crate::design::Design;

    #[test]
    fn chain_orders_upstream_first() {
        let mut d = Design::new("chain");
        let a = d.add_input("a", 4).unwrap();
        let t1 = d.add_signal("t1", 4).unwrap();
        let t2 = d.add_signal("t2", 4).unwrap();
        // Insert the consumer before the producer to exercise ordering.
        d.add_component("second", ComponentKind::Not, &[t1], t2, None)
            .unwrap();
        d.add_component("first", ComponentKind::Not, &[a], t1, None)
            .unwrap();
        let order = topo_order(&d).unwrap();
        let names: Vec<&str> = order.iter().map(|id| d.component(*id).name()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn register_breaks_cycle() {
        // acc -> add -> acc is fine because acc is a register.
        let mut d = Design::new("acc");
        let clk = d.add_clock("clk").unwrap();
        let x = d.add_input("x", 8).unwrap();
        let q = d.add_signal("q", 8).unwrap();
        let sum = d.add_signal("sum", 8).unwrap();
        d.add_component("adder", ComponentKind::Add, &[q, x], sum, None)
            .unwrap();
        d.add_component(
            "acc",
            ComponentKind::Register {
                init: Some(0),
                has_enable: false,
            },
            &[sum],
            q,
            Some(clk),
        )
        .unwrap();
        let order = topo_order(&d).unwrap();
        assert_eq!(order.len(), 1); // just the adder
        assert!(d.validate().is_ok());
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut d = Design::new("cyc");
        let a = d.add_signal("a", 1).unwrap();
        let b = d.add_signal("b", 1).unwrap();
        d.add_component("n1", ComponentKind::Not, &[a], b, None)
            .unwrap();
        d.add_component("n2", ComponentKind::Not, &[b], a, None)
            .unwrap();
        assert!(matches!(
            topo_order(&d),
            Err(DesignError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn empty_design_is_fine() {
        let d = Design::new("empty");
        assert!(topo_order(&d).unwrap().is_empty());
    }
}
