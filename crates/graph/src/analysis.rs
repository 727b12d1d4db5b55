//! Operator-level compute/data analysis.
//!
//! Reproduces the quantities behind the paper's motivation figures:
//! arithmetic intensity (FLOPs per byte of memory traffic, Figs. 5(c) and
//! 6), per-layer FLOPs, and data volumes. All byte counts assume the
//! paper's 8-bit quantization (1 byte per weight/activation element).

use crate::{Graph, GraphError, Node, NodeId, OpKind};

/// Per-node compute and data-movement profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeProfile {
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Floating-point (or int) operations: `2·macs` for MAC operators, the
    /// elementwise work otherwise.
    pub flops: u64,
    /// Static weight bytes (int8).
    pub weight_bytes: u64,
    /// Input activation bytes read.
    pub in_bytes: u64,
    /// Output activation bytes written.
    pub out_bytes: u64,
}

impl NodeProfile {
    /// Arithmetic intensity with weights streamed from main memory
    /// (the roofline AI the paper plots in Fig. 5(c): LLaMA2 ≈ 2 because
    /// its weights dwarf its activations).
    pub fn ai_streamed(&self) -> f64 {
        let bytes = self.weight_bytes + self.in_bytes + self.out_bytes;
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// Arithmetic intensity with weights resident in compute-mode arrays:
    /// FLOPs per byte of *dynamic* traffic. This is the `AI_Oi` of the
    /// paper's latency model (Eq. 10), where compute arrays already hold
    /// the weights.
    pub fn ai_resident(&self) -> f64 {
        let bytes = self.in_bytes + self.out_bytes;
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }
}

/// Aggregate profile of a whole graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphProfile {
    /// Sum of node MACs.
    pub macs: u64,
    /// Sum of node FLOPs.
    pub flops: u64,
    /// Sum of static weight bytes.
    pub weight_bytes: u64,
    /// Sum of activation bytes moved (inputs + outputs).
    pub activation_bytes: u64,
}

impl GraphProfile {
    /// Model-average arithmetic intensity with weights streamed
    /// (Fig. 5(c) definition; ResNet-50 lands near the paper's ≈66).
    pub fn average_ai(&self) -> f64 {
        let bytes = self.weight_bytes + self.activation_bytes;
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }
}

/// Coarse operator classes used by Fig. 6(b)'s breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Attention Q/K/V projections.
    MhaQkv,
    /// Attention score/context matmuls and output projection.
    MhaFc,
    /// Feed-forward linear layers.
    FfnFc,
    /// Everything else (norms, softmax, embeddings, ...).
    Other,
}

impl OpClass {
    /// Classifies a node by its structured name (the model zoo names
    /// attention projections `*.qkv*`, attention matmuls `*.attn*`, FFN
    /// layers `*.ffn*`).
    pub fn of(node: &Node) -> OpClass {
        let n = node.name.as_str();
        if !node.op.is_cim_supported() {
            return OpClass::Other;
        }
        if n.contains("qkv") || n.contains("q_proj") || n.contains("k_proj") || n.contains("v_proj")
        {
            OpClass::MhaQkv
        } else if n.contains("attn") || n.contains("o_proj") || n.contains("out_proj") {
            OpClass::MhaFc
        } else if n.contains("ffn") || n.contains("mlp") {
            OpClass::FfnFc
        } else {
            OpClass::Other
        }
    }
}

/// Computes the profile of a single node given its graph (for input
/// shapes).
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] if the node references unknown
/// producers.
pub fn profile_node(graph: &Graph, node: &Node) -> Result<NodeProfile, GraphError> {
    let out_numel = node.out_numel() as u64;
    let mut in_bytes = 0u64;
    for &input in &node.inputs {
        in_bytes += graph.node(input)?.out_numel() as u64;
    }

    let (macs, flops, weight_bytes): (u64, u64, u64) = match &node.op {
        OpKind::Input { .. } => (0, 0, 0),
        OpKind::Linear { out_features } => {
            let in_features = *graph
                .node(node.inputs[0])?
                .shape
                .last()
                .unwrap_or(&0) as u64;
            let macs = out_numel * in_features;
            (macs, 2 * macs, in_features * *out_features as u64)
        }
        OpKind::Conv2d {
            out_channels,
            kernel,
            groups,
            ..
        } => {
            let in_c = graph.node(node.inputs[0])?.shape[1] as u64;
            let k = (*kernel * *kernel) as u64;
            let per_out = in_c / *groups as u64 * k;
            let macs = out_numel * per_out;
            let wbytes = *out_channels as u64 * per_out;
            (macs, 2 * macs, wbytes)
        }
        OpKind::BatchMatMul { transpose_rhs } => {
            let a = &graph.node(node.inputs[0])?.shape;
            let k = if a.len() == 3 { a[2] } else { a[1] } as u64;
            let _ = transpose_rhs;
            let macs = out_numel * k;
            (macs, 2 * macs, 0)
        }
        OpKind::Softmax => (0, 5 * out_numel, 0),
        OpKind::LayerNorm => (0, 8 * out_numel, 0),
        OpKind::Act(_) => (0, out_numel, 0),
        OpKind::Add | OpKind::Mul => (0, out_numel, 0),
        OpKind::MaxPool2d { kernel, .. } | OpKind::AvgPool2d { kernel, .. } => {
            (0, out_numel * (*kernel * *kernel) as u64, 0)
        }
        OpKind::GlobalAvgPool => {
            let in_numel: u64 = graph.node(node.inputs[0])?.out_numel() as u64;
            (0, in_numel, 0)
        }
        OpKind::Embedding { vocab, dim } => (0, 0, (*vocab * *dim) as u64),
        OpKind::Flatten | OpKind::Reshape { .. } => (0, 0, 0),
    };

    Ok(NodeProfile {
        macs,
        flops,
        weight_bytes,
        in_bytes,
        out_bytes: out_numel,
    })
}

/// Profiles every node, returning profiles indexed by node id.
///
/// # Errors
///
/// Propagates [`GraphError`] from malformed graphs.
pub fn profile_graph(graph: &Graph) -> Result<Vec<NodeProfile>, GraphError> {
    graph
        .nodes()
        .iter()
        .map(|n| profile_node(graph, n))
        .collect()
}

/// Aggregates node profiles into a [`GraphProfile`].
///
/// # Errors
///
/// Propagates [`GraphError`] from malformed graphs.
pub fn summarize(graph: &Graph) -> Result<GraphProfile, GraphError> {
    let profiles = profile_graph(graph)?;
    let mut total = GraphProfile {
        macs: 0,
        flops: 0,
        weight_bytes: 0,
        activation_bytes: 0,
    };
    for p in profiles {
        total.macs += p.macs;
        total.flops += p.flops;
        total.weight_bytes += p.weight_bytes;
        total.activation_bytes += p.in_bytes + p.out_bytes;
    }
    Ok(total)
}

/// Per-class FLOPs and bytes for the Fig. 6(b) breakdown.
///
/// Returns `(class, flops, bytes_streamed)` for each of the four classes.
///
/// # Errors
///
/// Propagates [`GraphError`] from malformed graphs.
pub fn class_breakdown(graph: &Graph) -> Result<Vec<(OpClass, u64, u64)>, GraphError> {
    use OpClass::*;
    let mut acc: [(OpClass, u64, u64); 4] =
        [(MhaQkv, 0, 0), (MhaFc, 0, 0), (FfnFc, 0, 0), (Other, 0, 0)];
    for node in graph.nodes() {
        let p = profile_node(graph, node)?;
        let class = OpClass::of(node);
        let slot = acc
            .iter_mut()
            .find(|(c, _, _)| *c == class)
            .expect("all classes present");
        slot.1 += p.flops;
        slot.2 += p.weight_bytes + p.in_bytes + p.out_bytes;
    }
    Ok(acc.to_vec())
}

/// Layer-wise arithmetic intensity of the CIM-supported operators, in
/// topological order (Fig. 6(a)).
///
/// # Errors
///
/// Propagates [`GraphError`] from malformed graphs.
pub fn layerwise_ai(graph: &Graph) -> Result<Vec<(NodeId, f64)>, GraphError> {
    let mut out = Vec::new();
    for &id in &graph.topo_order() {
        let node = graph.node(id)?;
        if node.op.is_cim_supported() {
            let p = profile_node(graph, node)?;
            out.push((id, p.ai_streamed()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn linear_graph(batch: usize, inf: usize, outf: usize) -> Graph {
        let mut b = GraphBuilder::new("lin");
        let x = b.input("x", vec![batch, inf]);
        b.linear("fc", x, outf).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn linear_profile_exact() {
        let g = linear_graph(4, 64, 32);
        let p = profile_node(&g, g.node(NodeId(1)).unwrap()).unwrap();
        assert_eq!(p.macs, 4 * 64 * 32);
        assert_eq!(p.flops, 2 * 4 * 64 * 32);
        assert_eq!(p.weight_bytes, 64 * 32);
        assert_eq!(p.in_bytes, 4 * 64);
        assert_eq!(p.out_bytes, 4 * 32);
    }

    #[test]
    fn conv_profile_exact() {
        let mut b = GraphBuilder::new("conv");
        let x = b.input("x", vec![1, 3, 8, 8]);
        b.conv2d("c", x, 16, 3, 1, 1).unwrap();
        let g = b.finish().unwrap();
        let p = profile_node(&g, g.node(NodeId(1)).unwrap()).unwrap();
        // out: 1x16x8x8, per-out-macs: 3*9=27
        assert_eq!(p.macs, 16 * 64 * 27);
        assert_eq!(p.weight_bytes, 16 * 27);
    }

    #[test]
    fn depthwise_conv_fewer_macs() {
        let mut b = GraphBuilder::new("dw");
        let x = b.input("x", vec![1, 32, 8, 8]);
        b.conv2d_grouped("c", x, 32, 3, 1, 1, 32).unwrap();
        let g = b.finish().unwrap();
        let p = profile_node(&g, g.node(NodeId(1)).unwrap()).unwrap();
        // Depthwise: each output channel sees 1 input channel.
        assert_eq!(p.macs, 32 * 64 * 9);
        assert_eq!(p.weight_bytes, 32 * 9);
    }

    #[test]
    fn matmul_profile() {
        let mut b = GraphBuilder::new("mm");
        let a = b.input("a", vec![2, 8, 16]);
        let c = b.input("b", vec![2, 16, 4]);
        b.matmul("mm", a, c, false).unwrap();
        let g = b.finish().unwrap();
        let p = profile_node(&g, g.node(NodeId(2)).unwrap()).unwrap();
        assert_eq!(p.macs, 2 * 8 * 4 * 16);
        assert_eq!(p.weight_bytes, 0); // dynamic x dynamic
    }

    #[test]
    fn streamed_ai_below_resident_ai() {
        let g = linear_graph(4, 64, 32);
        let p = profile_node(&g, g.node(NodeId(1)).unwrap()).unwrap();
        assert!(p.ai_streamed() < p.ai_resident());
    }

    #[test]
    fn big_batch_raises_streamed_ai() {
        // With weights streamed, larger batch amortizes the weight traffic.
        let small = summarize(&linear_graph(1, 512, 512)).unwrap();
        let large = summarize(&linear_graph(64, 512, 512)).unwrap();
        assert!(large.average_ai() > small.average_ai());
    }

    #[test]
    fn class_of_names() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", vec![1, 16]);
        let q = b.linear("l0.qkv_proj", x, 16).unwrap();
        let o = b.linear("l0.attn.out_proj", q, 16).unwrap();
        let f = b.linear("l0.ffn.fc1", o, 16).unwrap();
        let n = b.layer_norm("l0.norm", f).unwrap();
        let _ = n;
        let g = b.finish().unwrap();
        assert_eq!(OpClass::of(g.node(NodeId(1)).unwrap()), OpClass::MhaQkv);
        assert_eq!(OpClass::of(g.node(NodeId(2)).unwrap()), OpClass::MhaFc);
        assert_eq!(OpClass::of(g.node(NodeId(3)).unwrap()), OpClass::FfnFc);
        assert_eq!(OpClass::of(g.node(NodeId(4)).unwrap()), OpClass::Other);
    }

    #[test]
    fn layerwise_ai_only_cim_ops() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", vec![1, 16]);
        let h = b.linear("fc1", x, 16).unwrap();
        let h = b.relu("r", h).unwrap();
        b.linear("fc2", h, 16).unwrap();
        let g = b.finish().unwrap();
        let ai = layerwise_ai(&g).unwrap();
        assert_eq!(ai.len(), 2);
    }

    #[test]
    fn summarize_totals() {
        let g = linear_graph(2, 8, 8);
        let s = summarize(&g).unwrap();
        assert_eq!(s.macs, 2 * 8 * 8);
        assert_eq!(s.weight_bytes, 64);
        // input node contributes out_bytes 16; linear contributes in 16 out 16.
        assert_eq!(s.activation_bytes, 16 + 16 + 16);
    }
}
