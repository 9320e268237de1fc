//! The paper's model/batch evaluation grids.

use deepum_torch::models::ModelKind;

/// One (model, batch sizes) row of the Fig. 9 grid.
#[derive(Debug, Clone, Copy)]
pub struct GridRow {
    /// Model configuration.
    pub model: ModelKind,
    /// Batch sizes the paper evaluates for this model.
    pub batches: &'static [usize],
}

/// The Fig. 9 / Tables 3-5 grid: seven models on the V100 32 GB
/// (paper Section 6.2). Batch sizes are the paper's.
pub const FIG9_GRID: &[GridRow] = &[
    GridRow {
        model: ModelKind::Gpt2Xl,
        batches: &[3, 5, 7],
    },
    GridRow {
        model: ModelKind::Gpt2L,
        batches: &[3, 5, 7],
    },
    GridRow {
        model: ModelKind::BertLarge,
        batches: &[14, 16, 18],
    },
    GridRow {
        model: ModelKind::BertBase,
        batches: &[29, 30, 31],
    },
    GridRow {
        model: ModelKind::Dlrm,
        batches: &[96_000, 128_000, 160_000, 192_000, 224_000],
    },
    GridRow {
        model: ModelKind::ResNet152,
        batches: &[1280, 1536, 1792],
    },
    GridRow {
        model: ModelKind::ResNet200,
        batches: &[1024, 1280, 1536],
    },
];

/// The Section 6.4 grid: four models on the V100 16 GB, compared against
/// the TensorFlow-based systems (Fig. 13 / Table 7). Batches chosen near
/// the TF systems' operating points.
pub const FIG13_GRID: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet200Cifar, 3072),
    (ModelKind::BertLargeCola, 384),
    (ModelKind::Dcgan, 8192),
    (ModelKind::MobileNet, 20480),
];

/// Middle-of-grid batch per model, used by the sensitivity experiments
/// (Figs. 10-12) to keep runs representative without sweeping the full
/// grid.
pub fn middle_batch(model: ModelKind) -> usize {
    FIG9_GRID
        .iter()
        .find(|r| r.model == model)
        .map(|r| r.batches[r.batches.len() / 2])
        .unwrap_or(8)
}

/// All (model, batch) cells of the Fig. 9 grid, in grid order.
pub fn fig9_cells() -> Vec<(ModelKind, usize)> {
    FIG9_GRID
        .iter()
        .flat_map(|r| r.batches.iter().map(move |&b| (r.model, b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_shape() {
        assert_eq!(FIG9_GRID.len(), 7);
        let cells: usize = FIG9_GRID.iter().map(|r| r.batches.len()).sum();
        assert_eq!(cells, 4 * 3 + 5 + 2 * 3); // 23 model/batch points
        assert_eq!(fig9_cells().len(), cells);
        assert_eq!(FIG13_GRID.len(), 4);
    }

    #[test]
    fn middle_batches() {
        assert_eq!(middle_batch(ModelKind::Gpt2Xl), 5);
        assert_eq!(middle_batch(ModelKind::Dlrm), 160_000);
    }
}
