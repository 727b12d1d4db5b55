use std::fmt;

use crate::OpKind;

/// Identifier of a node inside a [`crate::Graph`].
///
/// Ids are dense indices assigned in insertion order, which is also a valid
/// creation order (builders only reference already-created nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single operator instance in the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// Human-readable name (layer name).
    pub name: String,
    /// The operator.
    pub op: OpKind,
    /// Producer nodes, in operator-argument order.
    pub inputs: Vec<NodeId>,
    /// Inferred output shape (filled by shape inference).
    pub shape: Vec<usize>,
}

impl Node {
    /// Number of elements in the node's output tensor.
    pub fn out_numel(&self) -> usize {
        self.shape.iter().product()
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {} -> {:?}", self.id, self.name, self.op, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_display_and_numel() {
        let n = Node {
            id: NodeId(3),
            name: "fc".into(),
            op: OpKind::Linear { out_features: 10 },
            inputs: vec![NodeId(2)],
            shape: vec![4, 10],
        };
        assert_eq!(n.out_numel(), 40);
        let s = n.to_string();
        assert!(s.contains("n3") && s.contains("fc") && s.contains("linear"));
    }

    #[test]
    fn node_id_ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(5).index(), 5);
    }
}
