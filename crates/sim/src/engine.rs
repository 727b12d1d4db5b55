//! The event-driven, cycle-level dual-mode simulator.
//!
//! [`crate::timing::simulate`] replays a flow strictly in statement
//! order, which cannot show how CIM-mode compute, memory-mode
//! buffering and mode-switch overheads *overlap and contend* on a real
//! chip — the effect the paper's end-to-end evaluation rests on. This
//! module grows the simulator into that role: statements become events
//! on per-array timelines, a binary-heap completion queue drives the
//! schedule, and an event starts as soon as — but no sooner than — its
//! data and resources allow.
//!
//! # Event model
//!
//! Every statement of the flow becomes one event (segments become a
//! weight-load event per operator plus one pipelined execution event).
//! An event waits for:
//!
//! * **arrays** — an array serves one event at a time, so consecutive
//!   touches of the same array serialize (per-array timelines record
//!   the busy windows; `CM.switch` events are explicit occupants costed
//!   from the [`DualModeArch`] switch latencies and the
//!   [`EnergyModel`] switch energy);
//! * **data** — a segment's execution waits for the segments it
//!   actually consumes (taken from [`CompiledProgram::op_deps`] when
//!   simulating a compiled program; a plain flow conservatively chains
//!   segments) and for any write-back statement emitted ahead of it;
//! * **shared resources** — bulk memory statements contend for the one
//!   off-chip/buffer port (they serialize among themselves on a bus
//!   timeline), and top-level vector statements serialize on the single
//!   vector function unit.
//!
//! Everything else overlaps: the next segment's mode switches and
//! weight loads start while the previous segment still executes on
//! *other* arrays, write-backs stream out while unrelated arrays
//! reconfigure, and truly independent segments pipeline.
//!
//! Both simulators price statements through the shared [`crate::model`]
//! kernel, so the event engine can never be slower than the sequential
//! replay — on a fully serial flow the two agree bit-for-bit, and every
//! admitted overlap only moves events earlier. `tests/sim_differential.rs`
//! checks exactly that across the full model registry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cmswitch_arch::{ArrayId, DualModeArch};
use cmswitch_core::{CompileOutcome, CompiledProgram, DiagnosticEvent, Diagnostics, Session};
use cmswitch_metaop::{Flow, MemLoc, MetaOpError, Stmt, SwitchKind};

use crate::chip::ChipState;
use crate::energy::{self, EnergyModel, EnergyReport};
use crate::model;
use crate::tenancy::{ChipScheduler, CoSimOptions, TenancyError, TenancyReport, TenantProgram};

use crate::stats::{
    ArrayTimeline, BusyBreakdown, BusyInterval, BusyKind, CriticalStep, EngineReport,
    SegmentWindow,
};

/// Analytic lower bound on any schedule of `flow` on `arch`: the
/// slowest compute statement priced by the Eq. 9/10 relaxation with the
/// *whole chip* granted to it (the same solver hook the segmentation
/// DP's pruning bound uses). No event schedule can beat it, because
/// every compute event's own duration already exceeds its bound.
pub fn latency_lower_bound(flow: &Flow, arch: &DualModeArch) -> f64 {
    let chip = cmswitch_solver::alloc::AllocChip {
        op_cim: arch.op_cim(),
        d_cim: arch.d_cim(),
        n_arrays: arch.n_arrays(),
    };
    fn visit(stmts: &[Stmt], arch: &DualModeArch, chip: &cmswitch_solver::alloc::AllocChip) -> f64 {
        let mut lb = 0.0f64;
        for stmt in stmts {
            match stmt {
                Stmt::Parallel(body) => lb = lb.max(visit(body, arch, chip)),
                Stmt::Compute(c) => {
                    let work = (c.units * c.m * c.k * c.n) as f64;
                    let ai = if c.in_bytes == 0 {
                        1e12
                    } else {
                        work / c.in_bytes as f64
                    };
                    let op = cmswitch_solver::alloc::AllocOp {
                        work,
                        min_compute: 1,
                        ai,
                        d_main: arch.d_main(),
                    };
                    lb = lb.max(cmswitch_solver::alloc::latency_lower_bound(
                        std::slice::from_ref(&op),
                        chip,
                    ));
                }
                _ => {}
            }
        }
        lb
    }
    visit(flow.stmts(), arch, &chip)
}

/// What an event waits for from one predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepOn {
    /// The predecessor's completion.
    Finish,
    /// The predecessor releasing one specific array (a segment releases
    /// each lane's arrays as the lane drains, before the whole segment
    /// completes).
    Array(ArrayId),
}

/// Payload of one event node.
enum Payload {
    Switch {
        kind: SwitchKind,
        arrays: Vec<ArrayId>,
    },
    Load {
        arrays: Vec<ArrayId>,
    },
    Seg {
        index: usize,
        phases: model::SegmentPhases,
        /// `(lane cycles, compute arrays)` per operator.
        lanes: Vec<(f64, Vec<ArrayId>)>,
        /// Memory-mode arrays and how long the segment keeps each busy.
        mem_busy: Vec<(ArrayId, f64)>,
        /// Weight-load events forming this segment's barrier.
        load_nodes: Vec<usize>,
        energy_pj: f64,
    },
    Mem {
        arrays: Vec<ArrayId>,
    },
    Vector,
}

struct Node {
    label: String,
    duration: f64,
    payload: Payload,
    deps: Vec<(usize, DepOn)>,
}

/// The event-driven simulator. Construct once (optionally with a custom
/// [`EnergyModel`]) and reuse across flows.
#[derive(Debug, Clone, Default)]
pub struct EventEngine {
    energy: EnergyModel,
}

impl EventEngine {
    /// An engine with the default energy model.
    pub fn new() -> Self {
        EventEngine::default()
    }

    /// An engine charging energy through `model`.
    pub fn with_energy_model(model: EnergyModel) -> Self {
        EventEngine { energy: model }
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Simulates a bare flow. Without operator dependency information,
    /// segments are conservatively chained (each waits for the previous
    /// one's data); switches, weight loads and write-backs still overlap
    /// wherever arrays and the bus allow.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError`] if the flow violates mode discipline at
    /// runtime.
    pub fn simulate(&self, flow: &Flow, arch: &DualModeArch) -> Result<EngineReport, MetaOpError> {
        self.run(flow, arch, None)
    }

    /// Simulates a compiled program: segment-level data dependencies are
    /// derived from [`CompiledProgram::op_deps`], so segments with no
    /// producer-consumer relation may overlap ("inter-segment
    /// pipelining"). Falls back to the conservative chain of
    /// [`EventEngine::simulate`] if the flow's segment count does not
    /// match the plan.
    ///
    /// The engine *trusts* `op_deps`: a missing edge silently legalizes
    /// an overlap that reads data before it exists. The `dep-missing`
    /// lint of `cmswitch-core`'s `verify` module statically checks that
    /// every shared-buffer and planned-reuse dependence has its edge.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError`] if the emitted flow violates mode
    /// discipline (a compiler bug this simulator exists to catch).
    pub fn simulate_program(
        &self,
        program: &CompiledProgram,
        arch: &DualModeArch,
    ) -> Result<EngineReport, MetaOpError> {
        // Count what `push_segment` counts — `parallel` blocks AND bare
        // top-level compute statements — so segment indices cannot
        // silently misalign with the plan's dependency table.
        let n_flow_segments = program
            .flow
            .stmts()
            .iter()
            .filter(|s| matches!(s, Stmt::Parallel(_) | Stmt::Compute(_)))
            .count();
        let seg_deps = (n_flow_segments == program.segments.len()).then(|| {
            // Map each op to its segment, then project op deps onto
            // segment indices.
            let mut op_seg = vec![usize::MAX; program.ops.len()];
            for (si, seg) in program.segments.iter().enumerate() {
                for slot in op_seg
                    .iter_mut()
                    .take(seg.range.1 + 1)
                    .skip(seg.range.0)
                {
                    *slot = si;
                }
            }
            let mut deps: Vec<Vec<usize>> = vec![Vec::new(); program.segments.len()];
            for &(p, c) in &program.op_deps {
                let (sp, sc) = (op_seg.get(p), op_seg.get(c));
                if let (Some(&sp), Some(&sc)) = (sp, sc) {
                    if sp != usize::MAX && sc != usize::MAX && sp != sc {
                        let (from, to) = if sp < sc { (sp, sc) } else { (sc, sp) };
                        if !deps[to].contains(&from) {
                            deps[to].push(from);
                        }
                    }
                }
            }
            deps
        });
        self.run(&program.flow, arch, seg_deps)
    }

    fn run(
        &self,
        flow: &Flow,
        arch: &DualModeArch,
        seg_deps: Option<Vec<Vec<usize>>>,
    ) -> Result<EngineReport, MetaOpError> {
        // ---- Mode-discipline prepass (same order the sequential model
        // applies statements in, so violations surface identically). ----
        let mut chip = ChipState::new(arch);
        for (idx, stmt) in flow.stmts().iter().enumerate() {
            match stmt {
                Stmt::Parallel(body) => {
                    for s in body {
                        chip.apply(s, idx)?;
                    }
                }
                other => chip.apply(other, idx)?,
            }
        }

        // ---- Build the event graph. ----
        let mut b = Builder::new(arch, &self.energy, seg_deps);
        for (idx, stmt) in flow.stmts().iter().enumerate() {
            b.push_stmt(stmt, idx);
        }
        let Builder {
            nodes,
            seg_nodes,
            serialized,
            switch_process,
            switches_to_compute,
            switches_to_memory,
            energy: total_energy,
            ..
        } = b;

        // ---- Event-driven run: completion events through a binary
        // heap, dependents fire as their last dependency resolves. ----
        let timelines = (0..arch.n_arrays())
            .map(|i| ArrayTimeline {
                array: ArrayId(i as u32),
                final_mode: chip.mode(ArrayId(i as u32)),
                intervals: Vec::new(),
            })
            .collect();
        let mut sched = Scheduler::new(&nodes, timelines);
        sched.run(&nodes, arch);
        let Scheduler {
            starts,
            finishes,
            critical,
            timelines,
            breakdown,
            ..
        } = sched;

        // ---- Makespan + critical path. ----
        let mut last: Option<usize> = None;
        let mut total = 0.0f64;
        for (i, &f) in finishes.iter().enumerate() {
            if last.is_none() || f > total {
                total = f;
                last = Some(i);
            }
        }
        let mut critical_path = Vec::new();
        let mut cursor = last;
        while let Some(i) = cursor {
            critical_path.push(CriticalStep {
                label: nodes[i].label.clone(),
                start: starts[i],
                end: finishes[i],
            });
            cursor = critical[i];
        }
        critical_path.reverse();

        // ---- Per-segment windows. ----
        let mut segments = Vec::with_capacity(seg_nodes.len());
        for &si in &seg_nodes {
            if let Payload::Seg {
                index,
                phases,
                load_nodes,
                energy_pj,
                ..
            } = &nodes[si].payload
            {
                let first = load_nodes
                    .iter()
                    .map(|&l| starts[l])
                    .fold(starts[si], f64::min);
                segments.push(SegmentWindow {
                    index: *index,
                    start: first,
                    end: finishes[si],
                    load_cycles: phases.load_phase,
                    exec_cycles: phases.exec_and_loose(),
                    compute_ops: phases.n_ops,
                    energy_pj: *energy_pj,
                });
            }
        }

        Ok(EngineReport {
            total_cycles: total,
            serialized_cycles: serialized,
            switch_process_cycles: switch_process,
            switches_to_compute,
            switches_to_memory,
            breakdown,
            segments,
            energy: total_energy,
            timelines,
            critical_path,
        })
    }
}

/// The discrete-event run over a built node graph: a binary heap of
/// completion events; a node is scheduled the moment its last
/// dependency resolves, and scheduling records its busy intervals and
/// per-array release times.
struct Scheduler {
    pending: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    starts: Vec<f64>,
    finishes: Vec<f64>,
    critical: Vec<Option<usize>>,
    releases: Vec<Vec<(ArrayId, f64)>>,
    timelines: Vec<ArrayTimeline>,
    breakdown: BusyBreakdown,
    heap: BinaryHeap<Reverse<(TimeKey, usize)>>,
}

impl Scheduler {
    fn new(nodes: &[Node], timelines: Vec<ArrayTimeline>) -> Self {
        let n = nodes.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut pending: Vec<usize> = vec![0; n];
        for (i, node) in nodes.iter().enumerate() {
            pending[i] = node.deps.len();
            for &(d, _) in &node.deps {
                dependents[d].push(i);
            }
        }
        Scheduler {
            pending,
            dependents,
            starts: vec![0.0; n],
            finishes: vec![0.0; n],
            critical: vec![None; n],
            releases: vec![Vec::new(); n],
            timelines,
            breakdown: BusyBreakdown::default(),
            heap: BinaryHeap::new(),
        }
    }

    fn run(&mut self, nodes: &[Node], arch: &DualModeArch) {
        for i in 0..nodes.len() {
            if self.pending[i] == 0 {
                self.schedule(i, nodes, arch);
            }
        }
        let mut completed = 0usize;
        while let Some(Reverse((_, i))) = self.heap.pop() {
            completed += 1;
            let dependents = std::mem::take(&mut self.dependents[i]);
            for &d in &dependents {
                self.pending[d] -= 1;
                if self.pending[d] == 0 {
                    self.schedule(d, nodes, arch);
                }
            }
            self.dependents[i] = dependents;
        }
        debug_assert_eq!(completed, nodes.len(), "event graph must be acyclic");
    }

    fn schedule(&mut self, i: usize, nodes: &[Node], arch: &DualModeArch) {
        let node = &nodes[i];
        let mut start = 0.0f64;
        let mut crit = None;
        for &(d, on) in &node.deps {
            let t = match on {
                DepOn::Finish => self.finishes[d],
                DepOn::Array(a) => self.releases[d]
                    .iter()
                    .find(|(id, _)| *id == a)
                    .map_or(self.finishes[d], |&(_, t)| t),
            };
            if crit.is_none() || t > start {
                start = start.max(t);
                crit = Some(d);
            }
        }
        let finish = start + node.duration;
        self.starts[i] = start;
        self.finishes[i] = finish;
        self.critical[i] = crit;
        match &node.payload {
            Payload::Switch { kind, arrays } => {
                let stride = model::switch_stride(*kind, arch);
                for (r, &a) in arrays.iter().enumerate() {
                    self.timelines[a.index()].intervals.push(BusyInterval {
                        start: start + stride * r as f64,
                        end: start + stride * (r + 1) as f64,
                        kind: BusyKind::Switch,
                    });
                    self.releases[i].push((a, finish));
                }
                self.breakdown.switch += node.duration;
            }
            Payload::Load { arrays } => {
                let lat = arch.lat_write_array() as f64;
                for (j, &a) in arrays.iter().enumerate() {
                    self.timelines[a.index()].intervals.push(BusyInterval {
                        start: start + lat * j as f64,
                        end: start + lat * (j + 1) as f64,
                        kind: BusyKind::WeightLoad,
                    });
                    self.releases[i].push((a, finish));
                }
                self.breakdown.weight_load += node.duration;
            }
            Payload::Seg {
                lanes, mem_busy, ..
            } => {
                for (lane, arrays) in lanes {
                    let end = start + lane;
                    for &a in arrays {
                        self.timelines[a.index()].intervals.push(BusyInterval {
                            start,
                            end,
                            kind: BusyKind::Compute,
                        });
                        self.releases[i].push((a, end));
                        self.breakdown.compute += lane;
                    }
                }
                for &(a, busy) in mem_busy {
                    let end = start + busy;
                    self.timelines[a.index()].intervals.push(BusyInterval {
                        start,
                        end,
                        kind: BusyKind::MemTraffic,
                    });
                    self.releases[i].push((a, end));
                    self.breakdown.mem_traffic += busy;
                }
            }
            Payload::Mem { arrays } => {
                for &a in arrays {
                    self.timelines[a.index()].intervals.push(BusyInterval {
                        start,
                        end: finish,
                        kind: BusyKind::MemTraffic,
                    });
                    self.releases[i].push((a, finish));
                    self.breakdown.mem_traffic += node.duration;
                }
            }
            Payload::Vector => self.breakdown.vector += node.duration,
        }
        self.heap.push(Reverse((TimeKey(finish), i)));
    }
}

/// Heap key: finish time ordered totally (ties broken by node index in
/// the tuple the heap stores).
#[derive(Debug, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Builds the event graph from a flow, tracking per-array last users,
/// the data chain, the bus and the vector unit.
struct Builder<'a> {
    arch: &'a DualModeArch,
    energy_model: &'a EnergyModel,
    seg_deps: Option<Vec<Vec<usize>>>,
    nodes: Vec<Node>,
    /// Last event touching each array (build order = touch order).
    last_user: Vec<Option<usize>>,
    /// Last data-producing event (segment exec, bulk memory, vector).
    data_node: Option<usize>,
    /// Last bulk-memory event (the shared off-chip/buffer port).
    bus_node: Option<usize>,
    /// Last top-level vector event (the single vector function unit).
    fu_node: Option<usize>,
    /// Node id of each segment's execution event, in segment order.
    seg_nodes: Vec<usize>,
    /// Mem/vector events since the previous segment: the next segment's
    /// prologue (its write-back/reload traffic), which gates it even
    /// when its producers lie further back.
    prologue: Vec<usize>,
    seg_count: usize,
    serialized: f64,
    switch_process: f64,
    switches_to_compute: u64,
    switches_to_memory: u64,
    energy: EnergyReport,
}

impl<'a> Builder<'a> {
    fn new(
        arch: &'a DualModeArch,
        energy_model: &'a EnergyModel,
        seg_deps: Option<Vec<Vec<usize>>>,
    ) -> Self {
        Builder {
            arch,
            energy_model,
            seg_deps,
            nodes: Vec::new(),
            last_user: vec![None; arch.n_arrays()],
            data_node: None,
            bus_node: None,
            fu_node: None,
            seg_nodes: Vec::new(),
            prologue: Vec::new(),
            seg_count: 0,
            serialized: 0.0,
            switch_process: 0.0,
            switches_to_compute: 0,
            switches_to_memory: 0,
            energy: EnergyReport::default(),
        }
    }

    fn array_deps(&self, arrays: &[ArrayId], deps: &mut Vec<(usize, DepOn)>) {
        for &a in arrays {
            if let Some(u) = self.last_user[a.index()] {
                deps.push((u, DepOn::Array(a)));
            }
        }
    }

    fn touch(&mut self, arrays: &[ArrayId], node: usize) {
        for &a in arrays {
            self.last_user[a.index()] = Some(node);
        }
    }

    fn push_stmt(&mut self, stmt: &Stmt, idx: usize) {
        match stmt {
            Stmt::Switch { kind, arrays } => {
                energy::accumulate_stmt(stmt, self.arch, self.energy_model, &mut self.energy);
                match kind {
                    SwitchKind::ToCompute => self.switches_to_compute += arrays.len() as u64,
                    SwitchKind::ToMemory => self.switches_to_memory += arrays.len() as u64,
                }
                let duration = model::switch_duration(*kind, arrays.len(), self.arch);
                self.serialized += duration;
                self.switch_process += duration;
                let mut deps = Vec::new();
                self.array_deps(arrays, &mut deps);
                let id = self.nodes.len();
                self.nodes.push(Node {
                    label: format!("switch#{idx}({} x{})", kind.keyword(), arrays.len()),
                    duration,
                    payload: Payload::Switch {
                        kind: *kind,
                        arrays: arrays.clone(),
                    },
                    deps,
                });
                self.touch(arrays, id);
            }
            Stmt::LoadWeights(w) => {
                energy::accumulate_stmt(stmt, self.arch, self.energy_model, &mut self.energy);
                let duration = model::load_duration(w.arrays.len(), self.arch);
                self.serialized += duration;
                self.switch_process += duration;
                let mut deps = Vec::new();
                self.array_deps(&w.arrays, &mut deps);
                let id = self.nodes.len();
                self.nodes.push(Node {
                    label: format!("load#{idx}({})", w.op),
                    duration,
                    payload: Payload::Load {
                        arrays: w.arrays.clone(),
                    },
                    deps,
                });
                self.touch(&w.arrays, id);
            }
            Stmt::Mem(m) => {
                energy::accumulate_stmt(stmt, self.arch, self.energy_model, &mut self.energy);
                let duration = model::mem_duration(m, self.arch);
                self.serialized += duration;
                self.switch_process += duration;
                let arrays = match &m.loc {
                    MemLoc::CimArrays(a) => a.clone(),
                    _ => Vec::new(),
                };
                let mut deps = Vec::new();
                if let Some(d) = self.data_node {
                    deps.push((d, DepOn::Finish));
                }
                if let Some(bus) = self.bus_node {
                    deps.push((bus, DepOn::Finish));
                }
                self.array_deps(&arrays, &mut deps);
                let id = self.nodes.len();
                self.nodes.push(Node {
                    label: format!("mem#{idx}({})", m.label),
                    duration,
                    payload: Payload::Mem {
                        arrays: arrays.clone(),
                    },
                    deps,
                });
                self.touch(&arrays, id);
                self.data_node = Some(id);
                self.bus_node = Some(id);
                self.prologue.push(id);
            }
            Stmt::Vector(v) => {
                energy::accumulate_stmt(stmt, self.arch, self.energy_model, &mut self.energy);
                let duration = model::vector_duration(v.flops);
                self.serialized += duration;
                let mut deps = Vec::new();
                if let Some(d) = self.data_node {
                    deps.push((d, DepOn::Finish));
                }
                if let Some(fu) = self.fu_node {
                    deps.push((fu, DepOn::Finish));
                }
                let id = self.nodes.len();
                self.nodes.push(Node {
                    label: format!("vector#{idx}({})", v.op),
                    duration,
                    payload: Payload::Vector,
                    deps,
                });
                self.data_node = Some(id);
                self.fu_node = Some(id);
                self.prologue.push(id);
            }
            Stmt::Parallel(body) => self.push_segment(body, idx),
            Stmt::Compute(_) => self.push_segment(std::slice::from_ref(stmt), idx),
        }
    }

    fn push_segment(&mut self, body: &[Stmt], _idx: usize) {
        let seg_index = self.seg_count;
        self.seg_count += 1;

        // Energy: per statement into the flow total (same order as
        // `energy::estimate`) and into this segment's own bucket.
        let mut seg_energy = EnergyReport::default();
        for s in body {
            energy::accumulate_stmt(s, self.arch, self.energy_model, &mut self.energy);
            energy::accumulate_stmt(s, self.arch, self.energy_model, &mut seg_energy);
        }

        let phases = model::segment_phases(body, self.arch);
        self.serialized += phases.load_phase;
        self.serialized += phases.exec_and_loose();

        // Weight-load events: each op's load waits only for its own
        // arrays, so loads on arrays the previous segment is done with
        // start while that segment still runs elsewhere.
        let mut load_nodes = Vec::new();
        for s in body {
            if let Stmt::LoadWeights(w) = s {
                let duration = model::load_duration(w.arrays.len(), self.arch);
                let mut deps = Vec::new();
                self.array_deps(&w.arrays, &mut deps);
                let id = self.nodes.len();
                self.nodes.push(Node {
                    label: format!("seg{seg_index}.load({})", w.op),
                    duration,
                    payload: Payload::Load {
                        arrays: w.arrays.clone(),
                    },
                    deps,
                });
                self.touch(&w.arrays, id);
                load_nodes.push(id);
            }
        }

        // Lanes and memory-array occupancy.
        let mut lanes = Vec::new();
        let mut mem_busy: Vec<(ArrayId, f64)> = Vec::new();
        let note_mem = |a: ArrayId, busy: f64, mem_busy: &mut Vec<(ArrayId, f64)>| {
            match mem_busy.iter_mut().find(|(id, _)| *id == a) {
                Some((_, b)) => *b = b.max(busy),
                None => mem_busy.push((a, busy)),
            }
        };
        let mut referenced: Vec<ArrayId> = Vec::new();
        for s in body {
            match s {
                Stmt::Compute(c) => {
                    let lane = model::lane_duration(c, body, self.arch);
                    lanes.push((lane, c.compute_arrays.clone()));
                    referenced.extend(&c.compute_arrays);
                    for &a in c.mem_in_arrays.iter().chain(&c.mem_out_arrays) {
                        note_mem(a, lane, &mut mem_busy);
                        referenced.push(a);
                    }
                }
                Stmt::Mem(m) => {
                    if let MemLoc::CimArrays(arrays) = &m.loc {
                        for &a in arrays {
                            note_mem(a, phases.exec_and_loose(), &mut mem_busy);
                            referenced.push(a);
                        }
                    }
                }
                _ => {}
            }
        }
        referenced.sort_unstable();
        referenced.dedup();

        // Dependencies: the load barrier, every referenced array, the
        // write-back prologue, and the data producers.
        let mut deps: Vec<(usize, DepOn)> = load_nodes.iter().map(|&l| (l, DepOn::Finish)).collect();
        self.array_deps(&referenced, &mut deps);
        match &self.seg_deps {
            Some(all) => {
                for node in self.prologue.drain(..) {
                    deps.push((node, DepOn::Finish));
                }
                if let Some(producers) = all.get(seg_index) {
                    for &p in producers {
                        if let Some(&n) = self.seg_nodes.get(p) {
                            deps.push((n, DepOn::Finish));
                        }
                    }
                }
            }
            None => {
                self.prologue.clear();
                if let Some(d) = self.data_node {
                    deps.push((d, DepOn::Finish));
                }
            }
        }

        let id = self.nodes.len();
        self.nodes.push(Node {
            label: format!("seg{seg_index}.exec"),
            duration: phases.exec_and_loose(),
            payload: Payload::Seg {
                index: seg_index,
                phases,
                lanes,
                mem_busy,
                load_nodes,
                energy_pj: seg_energy.total_pj(),
            },
            deps,
        });
        self.touch(&referenced, id);
        self.seg_nodes.push(id);
        self.data_node = Some(id);
    }
}

/// What [`SessionSimExt::simulate`] returns: the engine's enriched
/// report plus the typed diagnostics of the simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// The event engine's report.
    pub report: EngineReport,
    /// Typed events describing the run (contains a
    /// [`DiagnosticEvent::Simulated`] summary).
    pub diagnostics: Diagnostics,
}

/// Surfaces the event engine through the `Session` API: compile with
/// the session, then execute the outcome on the same architecture.
///
/// ```
/// use cmswitch_arch::presets;
/// use cmswitch_core::{CompileRequest, Session};
/// use cmswitch_sim::SessionSimExt;
///
/// let session = Session::builder(presets::tiny()).build();
/// let graph = cmswitch_models::mlp::mlp(2, &[128, 256, 64]).unwrap();
/// let outcome = session.compile(CompileRequest::new(graph)).unwrap();
/// let sim = session.simulate(&outcome).unwrap();
/// assert!(sim.report.total_cycles > 0.0);
/// assert!(sim.diagnostics.simulated_cycles().is_some());
/// ```
pub trait SessionSimExt {
    /// Executes a compiled outcome on the event engine, emitting a
    /// [`DiagnosticEvent::Simulated`] summary.
    ///
    /// # Errors
    ///
    /// Returns [`MetaOpError`] if the compiled flow violates mode
    /// discipline (a compiler bug the simulator exists to catch).
    fn simulate(&self, outcome: &CompileOutcome) -> Result<SimulationOutcome, MetaOpError>;

    /// Co-schedules several compiled programs on this session's chip
    /// (see [`crate::tenancy::ChipScheduler`]).
    ///
    /// # Errors
    ///
    /// Returns [`TenancyError`] on admission rejection or malformed
    /// partition shares.
    fn co_simulate(
        &self,
        tenants: &[TenantProgram],
        options: CoSimOptions,
    ) -> Result<TenancyReport, TenancyError>;
}

impl SessionSimExt for Session {
    fn simulate(&self, outcome: &CompileOutcome) -> Result<SimulationOutcome, MetaOpError> {
        let report = EventEngine::new().simulate_program(&outcome.program, self.arch())?;
        let mut diagnostics = Diagnostics::new();
        diagnostics.push(DiagnosticEvent::Simulated {
            pipelined_cycles: report.total_cycles,
            serialized_cycles: report.serialized_cycles,
            energy_pj: report.energy.total_pj(),
            switches: report.switches_to_compute + report.switches_to_memory,
        });
        Ok(SimulationOutcome {
            report,
            diagnostics,
        })
    }

    fn co_simulate(
        &self,
        tenants: &[TenantProgram],
        options: CoSimOptions,
    ) -> Result<TenancyReport, TenancyError> {
        ChipScheduler::new(self.arch().clone())
            .with_options(options)
            .co_simulate(tenants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing;
    use cmswitch_arch::presets;
    use cmswitch_core::{CompileRequest, Session};
    use cmswitch_metaop::{ComputeStmt, MemDirection, MemStmt, WeightLoadStmt};

    fn compute(op: &str, arrays: Vec<ArrayId>, m: usize) -> Stmt {
        Stmt::Compute(ComputeStmt {
            op: op.into(),
            compute_arrays: arrays,
            mem_in_arrays: vec![],
            mem_out_arrays: vec![],
            m,
            k: 64,
            n: 64,
            units: 1,
            in_bytes: (m * 64) as u64,
            out_bytes: (m * 64) as u64,
            weight_static: true,
        })
    }

    fn load(op: &str, arrays: Vec<ArrayId>) -> Stmt {
        let bytes = arrays.len() as u64 * 64;
        Stmt::LoadWeights(WeightLoadStmt {
            op: op.into(),
            arrays,
            bytes,
        })
    }

    #[test]
    fn single_segment_flow_matches_sequential_bit_exactly() {
        let arch = presets::tiny();
        let mut flow = Flow::new("single");
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(0), ArrayId(1)],
        ));
        flow.push(Stmt::Parallel(vec![
            load("a", vec![ArrayId(0)]),
            compute("a", vec![ArrayId(0)], 16),
            load("b", vec![ArrayId(1)]),
            compute("b", vec![ArrayId(1)], 256),
        ]));
        flow.push(Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: 2048,
            label: "final output".into(),
        }));
        let seq = timing::simulate(&flow, &arch).unwrap();
        let eng = EventEngine::new().simulate(&flow, &arch).unwrap();
        assert_eq!(eng.total_cycles.to_bits(), seq.total_cycles.to_bits());
        assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());
        assert_eq!(eng.overlap_saved(), 0.0);
    }

    #[test]
    fn writeback_overlaps_next_segments_switch_and_load() {
        // seg0 on arrays {0,1}; write-back; seg1 on arrays {2,3}. The
        // write-back streams on the bus while arrays 2,3 switch and
        // load, so the engine beats the serial replay.
        let arch = presets::tiny();
        let mut flow = Flow::new("overlap");
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(0), ArrayId(1)],
        ));
        flow.push(Stmt::Parallel(vec![
            load("a", vec![ArrayId(0), ArrayId(1)]),
            compute("a", vec![ArrayId(0), ArrayId(1)], 64),
        ]));
        flow.push(Stmt::Mem(MemStmt {
            loc: MemLoc::Main,
            direction: MemDirection::Write,
            bytes: 1 << 16,
            label: "seg1 writeback".into(),
        }));
        flow.push(Stmt::switch(
            SwitchKind::ToCompute,
            vec![ArrayId(2), ArrayId(3)],
        ));
        flow.push(Stmt::Parallel(vec![
            load("b", vec![ArrayId(2), ArrayId(3)]),
            compute("b", vec![ArrayId(2), ArrayId(3)], 64),
        ]));
        let seq = timing::simulate(&flow, &arch).unwrap();
        let eng = EventEngine::new().simulate(&flow, &arch).unwrap();
        assert!(
            eng.total_cycles < seq.total_cycles,
            "engine {} vs sequential {}",
            eng.total_cycles,
            seq.total_cycles
        );
        assert!(eng.overlap_saved() > 0.0);
        // The timelines prove the pipelining: seg1's switch and weight
        // load on arrays 2,3 completed while seg0 still ran on arrays
        // 0,1 — i.e. strictly before the write-back (which cannot even
        // *start* until seg0's data is complete) finished.
        let seg0_end = eng.timelines[0]
            .intervals
            .iter()
            .chain(&eng.timelines[1].intervals)
            .map(|iv| iv.end)
            .fold(0.0f64, f64::max);
        for t in [&eng.timelines[2], &eng.timelines[3]] {
            let prep: Vec<_> = t
                .intervals
                .iter()
                .filter(|iv| matches!(iv.kind, BusyKind::Switch | BusyKind::WeightLoad))
                .collect();
            assert!(!prep.is_empty(), "array {:?} never prepared", t.array);
            for iv in prep {
                assert!(
                    iv.end <= seg0_end,
                    "array {:?}: {:?} did not overlap seg0 (ends {seg0_end})",
                    t.array,
                    iv
                );
            }
        }
    }

    #[test]
    fn independent_segments_overlap_with_op_deps() {
        // Compile a program, then rewrite its op_deps so segment 1 does
        // not consume segment 0: the engine may start both at once.
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(1, &[256, 256, 256, 64]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let mut program = session.compile_graph(&g).unwrap();
        assert!(program.segments.len() >= 2, "need a multi-segment plan");
        let chained = EventEngine::new().simulate_program(&program, &arch).unwrap();
        // Sever all inter-segment dependencies.
        program.op_deps.clear();
        let free = EventEngine::new().simulate_program(&program, &arch).unwrap();
        assert!(
            free.total_cycles <= chained.total_cycles,
            "independent segments must not schedule later: {} vs {}",
            free.total_cycles,
            chained.total_cycles
        );
    }

    #[test]
    fn session_simulate_emits_diagnostics() {
        let session = Session::builder(presets::tiny()).build();
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128]).unwrap();
        let outcome = session.compile(CompileRequest::new(g)).unwrap();
        let sim = session.simulate(&outcome).unwrap();
        let (pipelined, serialized) = sim.diagnostics.simulated_cycles().unwrap();
        assert!(pipelined > 0.0 && pipelined <= serialized);
        assert_eq!(pipelined, sim.report.total_cycles);
        assert!(!sim.report.critical_path.is_empty());
        assert!(sim.report.energy.total_pj() > 0.0);
        // Start times are monotone along the critical chain (windows
        // may overlap: a predecessor can release the binding resource
        // before its own end), and the chain ends at the makespan.
        for pair in sim.report.critical_path.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        let last = sim.report.critical_path.last().unwrap();
        assert_eq!(last.end, sim.report.total_cycles);
    }

    #[test]
    fn engine_dominates_sequential_and_matches_energy() {
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(2, &[256, 512, 256, 128]).unwrap();
        let session = Session::builder(arch.clone()).build();
        let program = session.compile_graph(&g).unwrap();
        let seq = timing::simulate(&program.flow, &arch).unwrap();
        let eng = EventEngine::new().simulate_program(&program, &arch).unwrap();
        assert!(eng.total_cycles <= seq.total_cycles);
        assert_eq!(eng.serialized_cycles.to_bits(), seq.total_cycles.to_bits());
        let direct = energy::estimate(&program.flow, &arch, &EnergyModel::default());
        assert_eq!(eng.energy.total_pj().to_bits(), direct.total_pj().to_bits());
        assert!(eng.total_cycles >= latency_lower_bound(&program.flow, &arch));
    }

    #[test]
    fn timelines_never_overlap_and_histogram_counts_arrays() {
        let arch = presets::tiny();
        let g = cmswitch_models::mlp::mlp(2, &[128, 256, 128, 64]).unwrap();
        let program = Session::builder(arch.clone())
            .build()
            .compile_graph(&g)
            .unwrap();
        let eng = EventEngine::new().simulate_program(&program, &arch).unwrap();
        for t in &eng.timelines {
            for pair in t.intervals.windows(2) {
                assert!(
                    pair[0].end <= pair[1].start + 1e-9,
                    "array {:?}: {:?} overlaps {:?}",
                    t.array,
                    pair[0],
                    pair[1]
                );
            }
        }
        let hist = eng.utilization_histogram();
        assert_eq!(
            hist.iter().sum::<u64>() as usize,
            arch.n_arrays(),
            "every array lands in exactly one bucket"
        );
        assert_eq!(eng.segments.len(), program.segments.len());
    }
}
