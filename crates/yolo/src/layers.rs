//! Layer types of the Darknet/YOLOv3 network graph.

use crate::gemm::GemmDims;
use serde::{Deserialize, Serialize};

/// Activation applied after a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Leaky ReLU with slope 0.1 (Darknet default).
    Leaky,
    /// Identity (YOLO head convolutions).
    Linear,
}

impl Activation {
    /// Apply to one fixed-point value. Leaky uses the power-of-two-friendly
    /// `x - (7x/8)` lowering... i.e. `x/8 + x/16 ≈ 0.1x` approximated as
    /// `x >> 3` (0.125) — close enough for the fixed-point pipeline and
    /// shift-only on the DPU.
    #[must_use]
    pub fn apply_i16(self, x: i16) -> i16 {
        match self {
            Activation::Linear => x,
            Activation::Leaky => {
                if x >= 0 {
                    x
                } else {
                    x >> 3
                }
            }
        }
    }

    /// Float reference of the same activation (slope 0.125 to match the
    /// fixed-point lowering).
    #[must_use]
    pub fn apply_f32(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Leaky => {
                if x >= 0.0 {
                    x
                } else {
                    x * 0.125
                }
            }
        }
    }
}

/// A tensor shape `channels × height × width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape {
    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// True for a degenerate shape.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parameters of a convolutional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Output filters (`M` of the GEMM, and the DPU count of the mapping).
    pub filters: usize,
    /// Kernel edge (1 or 3 in YOLOv3).
    pub size: usize,
    /// Stride (1 or 2).
    pub stride: usize,
    /// Zero padding (size/2 in Darknet).
    pub pad: usize,
    /// Post-conv activation.
    pub activation: Activation,
}

/// Output edge of a `size`-wide window sliding by `stride` over `edge`
/// plus `pad` total padding; `None` when the window does not fit or the
/// padded edge overflows.
fn window_out(edge: usize, pad: usize, size: usize, stride: usize) -> Option<usize> {
    Some(edge.checked_add(pad)?.checked_sub(size)? / stride + 1)
}

impl ConvSpec {
    /// Output shape given an input shape.
    ///
    /// # Panics
    /// When [`ConvSpec::try_out_shape`] rejects the geometry.
    #[must_use]
    pub fn out_shape(&self, input: Shape) -> Shape {
        self.try_out_shape(input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ConvSpec::out_shape`], or why the layer cannot run on `input`: a
    /// zero filter count, kernel or stride, a kernel wider than the padded
    /// input, or GEMM dimensions that overflow.
    ///
    /// # Errors
    /// A description of the first problem found.
    pub fn try_out_shape(&self, input: Shape) -> Result<Shape, String> {
        let Self { filters, size, stride, pad, .. } = *self;
        if filters == 0 || size == 0 || stride == 0 {
            return Err(format!(
                "conv needs non-zero filters, size and stride (got {filters}, {size}, {stride})"
            ));
        }
        let edge = |x: usize| {
            pad.checked_mul(2).and_then(|p| window_out(x, p, size, stride)).ok_or_else(|| {
                format!("conv kernel {size} does not fit input {x} padded by {pad} per side")
            })
        };
        let out = Shape { c: filters, h: edge(input.h)?, w: edge(input.w)? };
        // The GEMM view multiplies these out (see `ConvSpec::gemm_dims`).
        let k = size.checked_mul(size).and_then(|s| s.checked_mul(input.c));
        if k.is_none() || out.h.checked_mul(out.w).is_none() {
            return Err(format!("conv GEMM dimensions of {input:?} -> {out:?} overflow"));
        }
        Ok(out)
    }

    /// GEMM dimensions of this layer on a given input.
    #[must_use]
    pub fn gemm_dims(&self, input: Shape) -> GemmDims {
        let out = self.out_shape(input);
        GemmDims { m: self.filters, n: out.h * out.w, k: input.c * self.size * self.size }
    }
}

/// One layer of the network graph. Indices in `Route`/`Shortcut` are
/// absolute layer indices, as in Darknet `.cfg` files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Convolution (runs on the DPUs via GEMM).
    Conv(ConvSpec),
    /// Residual add with the output of an earlier layer (host).
    Shortcut {
        /// Absolute index of the layer to add.
        from: usize,
    },
    /// Concatenate earlier layers' outputs channel-wise (host).
    Route {
        /// Absolute indices of the layers to concatenate.
        layers: Vec<usize>,
    },
    /// Max pooling (host; AlexNet/tiny-YOLO style). Uses Darknet's
    /// convention: `out = (in + pad - size)/stride + 1` with `pad` total
    /// padding split left-light (`pad/2` before, the rest after) — this is
    /// what makes tiny-YOLO's `size=2 stride=1 pad=1` pool keep 13×13.
    MaxPool {
        /// Window edge.
        size: usize,
        /// Stride.
        stride: usize,
        /// Total padding (Darknet style, split across both sides).
        pad: usize,
    },
    /// Nearest-neighbour 2× upsample (host).
    Upsample,
    /// YOLO detection head over the given anchor boxes (host).
    Yolo {
        /// Anchor box `(w, h)` pairs in input pixels.
        anchors: Vec<(f32, f32)>,
    },
}

impl LayerSpec {
    /// Shorthand for a Darknet conv layer (pad = size/2).
    #[must_use]
    pub fn conv(filters: usize, size: usize, stride: usize) -> Self {
        LayerSpec::Conv(ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation: Activation::Leaky,
        })
    }

    /// A linear-activation conv (YOLO head output).
    #[must_use]
    pub fn conv_linear(filters: usize, size: usize, stride: usize) -> Self {
        LayerSpec::Conv(ConvSpec {
            filters,
            size,
            stride,
            pad: size / 2,
            activation: Activation::Linear,
        })
    }

    /// Output shape of this layer. `shapes` holds the output shapes of all
    /// preceding layers (for `Route`/`Shortcut`); `input` is the previous
    /// layer's output.
    ///
    /// # Panics
    /// When [`LayerSpec::try_out_shape`] rejects the layer.
    #[must_use]
    pub fn out_shape(&self, input: Shape, shapes: &[Shape]) -> Shape {
        self.try_out_shape(input, shapes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`LayerSpec::out_shape`], or why the layer cannot follow `input`
    /// and `shapes`: a route/shortcut index that is not an earlier layer,
    /// mismatched shortcut or route shapes, a zero kernel or stride, a
    /// window wider than its padded input, or an overflowing size.
    ///
    /// # Errors
    /// A description of the first problem found.
    pub fn try_out_shape(&self, input: Shape, shapes: &[Shape]) -> Result<Shape, String> {
        let earlier = |l: usize| {
            shapes.get(l).copied().ok_or_else(|| format!("layer {l} is not an earlier layer"))
        };
        match self {
            LayerSpec::Conv(c) => c.try_out_shape(input),
            LayerSpec::Shortcut { from } => {
                let other = earlier(*from)?;
                if other != input {
                    return Err(format!("shortcut shapes must match: {other:?} vs {input:?}"));
                }
                Ok(input)
            }
            LayerSpec::Route { layers } => {
                let first = earlier(*layers.first().ok_or("route needs at least one layer")?)?;
                let mut c = 0usize;
                for &l in layers {
                    let s = earlier(l)?;
                    if (s.h, s.w) != (first.h, first.w) {
                        return Err(format!("route spatial mismatch: {s:?} vs {first:?}"));
                    }
                    c = c.checked_add(s.c).ok_or("route channel count overflows")?;
                }
                Ok(Shape { c, h: first.h, w: first.w })
            }
            &LayerSpec::MaxPool { size, stride, pad } => {
                if size == 0 || stride == 0 {
                    return Err(format!(
                        "maxpool needs non-zero size and stride (got {size}, {stride})"
                    ));
                }
                let edge = |x: usize| {
                    window_out(x, pad, size, stride).ok_or_else(|| {
                        format!("maxpool window {size} does not fit input {x} padded by {pad}")
                    })
                };
                Ok(Shape { c: input.c, h: edge(input.h)?, w: edge(input.w)? })
            }
            LayerSpec::Upsample => match (input.h.checked_mul(2), input.w.checked_mul(2)) {
                (Some(h), Some(w)) => Ok(Shape { c: input.c, h, w }),
                _ => Err(format!("upsample of {input:?} overflows")),
            },
            LayerSpec::Yolo { .. } => Ok(input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shapes() {
        let input = Shape { c: 3, h: 416, w: 416 };
        let c = ConvSpec { filters: 32, size: 3, stride: 1, pad: 1, activation: Activation::Leaky };
        assert_eq!(c.out_shape(input), Shape { c: 32, h: 416, w: 416 });
        let down =
            ConvSpec { filters: 64, size: 3, stride: 2, pad: 1, activation: Activation::Leaky };
        assert_eq!(down.out_shape(c.out_shape(input)), Shape { c: 64, h: 208, w: 208 });
    }

    #[test]
    fn gemm_dims_match_convention() {
        let input = Shape { c: 32, h: 208, w: 208 };
        let c = ConvSpec { filters: 64, size: 3, stride: 1, pad: 1, activation: Activation::Leaky };
        let d = c.gemm_dims(input);
        assert_eq!(d.m, 64);
        assert_eq!(d.k, 32 * 9);
        assert_eq!(d.n, 208 * 208);
    }

    #[test]
    fn leaky_is_shift_based() {
        assert_eq!(Activation::Leaky.apply_i16(100), 100);
        assert_eq!(Activation::Leaky.apply_i16(-80), -10);
        assert_eq!(Activation::Linear.apply_i16(-80), -80);
        assert_eq!(Activation::Leaky.apply_f32(-8.0), -1.0);
    }

    #[test]
    fn route_concatenates_channels() {
        let shapes = vec![Shape { c: 8, h: 13, w: 13 }, Shape { c: 16, h: 13, w: 13 }];
        let r = LayerSpec::Route { layers: vec![0, 1] };
        let out = r.out_shape(shapes[1], &shapes);
        assert_eq!(out, Shape { c: 24, h: 13, w: 13 });
    }

    #[test]
    fn maxpool_shapes() {
        // AlexNet's 3x3 stride-2 pools: 55 -> 27 -> ... 13 -> 6.
        let p = LayerSpec::MaxPool { size: 3, stride: 2, pad: 0 };
        assert_eq!(p.out_shape(Shape { c: 96, h: 55, w: 55 }, &[]), Shape { c: 96, h: 27, w: 27 });
        assert_eq!(p.out_shape(Shape { c: 256, h: 13, w: 13 }, &[]), Shape { c: 256, h: 6, w: 6 });
        // tiny-YOLO's stride-1 pool keeps 13x13 via pad=1 (Darknet rule).
        let p1 = LayerSpec::MaxPool { size: 2, stride: 1, pad: 1 };
        assert_eq!(
            p1.out_shape(Shape { c: 512, h: 13, w: 13 }, &[]),
            Shape { c: 512, h: 13, w: 13 }
        );
        // Plain stride-2 halving pool.
        let p2 = LayerSpec::MaxPool { size: 2, stride: 2, pad: 0 };
        assert_eq!(
            p2.out_shape(Shape { c: 16, h: 416, w: 416 }, &[]),
            Shape { c: 16, h: 208, w: 208 }
        );
    }

    #[test]
    fn upsample_doubles_spatial() {
        let s = LayerSpec::Upsample.out_shape(Shape { c: 4, h: 13, w: 13 }, &[]);
        assert_eq!(s, Shape { c: 4, h: 26, w: 26 });
    }

    #[test]
    #[should_panic(expected = "shortcut shapes must match")]
    fn mismatched_shortcut_panics() {
        let shapes = vec![Shape { c: 8, h: 13, w: 13 }];
        let s = LayerSpec::Shortcut { from: 0 };
        let _ = s.out_shape(Shape { c: 4, h: 13, w: 13 }, &shapes);
    }
}
