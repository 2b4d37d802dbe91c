//! Darknet `.cfg` parsing and emission.
//!
//! YOLOv3 ships as a Darknet configuration file; supporting the format
//! means a user can point this crate at their own `.cfg` instead of the
//! built-in table. The parser covers the sections YOLOv3 uses
//! (`[net] [convolutional] [shortcut] [route] [upsample] [yolo]`) with
//! Darknet's index conventions: `shortcut from` and `route layers` accept
//! negative (relative) or non-negative (absolute) layer indices, and
//! `[yolo]`'s `mask` selects from the 9-entry `anchors` list.
//!
//! [`to_cfg`] emits the same format back, and the round-trip against the
//! built-in [`crate::darknet::darknet53_yolov3`] table is tested — the
//! hand-built table and the parser validate each other.

use crate::darknet::NetworkConfig;
use crate::layers::{Activation, ConvSpec, LayerSpec, Shape};
use std::fmt;

/// Errors from `.cfg` parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfg error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CfgError {}

#[derive(Debug)]
struct Section {
    name: String,
    line: usize,
    keys: Vec<(String, String)>,
}

impl Section {
    fn get(&self, key: &str) -> Option<&str> {
        self.keys.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, CfgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.trim().parse().map_err(|_| CfgError {
                line: self.line,
                msg: format!("bad integer for `{key}`: `{v}`"),
            }),
        }
    }
}

fn split_sections(text: &str) -> Result<Vec<Section>, CfgError> {
    let mut sections: Vec<Section> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split(&['#', ';'][..]).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| CfgError { line: line_no, msg: "unterminated section".into() })?;
            sections.push(Section { name: name.to_owned(), line: line_no, keys: Vec::new() });
        } else if let Some((k, v)) = line.split_once('=') {
            let section = sections.last_mut().ok_or_else(|| CfgError {
                line: line_no,
                msg: "key before any [section]".into(),
            })?;
            section.keys.push((k.trim().to_owned(), v.trim().to_owned()));
        } else {
            return Err(CfgError { line: line_no, msg: format!("unparseable line `{line}`") });
        }
    }
    Ok(sections)
}

/// Resolve a Darknet layer reference (negative = relative to the current
/// layer) to an absolute index.
fn resolve_index(v: i64, current: usize, line: usize) -> Result<usize, CfgError> {
    let abs = if v < 0 { current as i64 + v } else { v };
    if abs < 0 || abs >= current as i64 {
        return Err(CfgError {
            line,
            msg: format!("layer reference {v} resolves outside 0..{current}"),
        });
    }
    Ok(abs as usize)
}

/// Parse Darknet `.cfg` text into a [`NetworkConfig`]. Every layer's
/// output shape is checked as it is parsed, so [`NetworkConfig::shapes`]
/// on the result cannot panic.
///
/// # Errors
/// [`CfgError`] with a line number on any malformed section, key, or layer
/// reference, and on any layer whose shape does not follow from its input
/// (see [`LayerSpec::try_out_shape`]).
pub fn parse_cfg(name: &str, text: &str) -> Result<NetworkConfig, CfgError> {
    let sections = split_sections(text)?;
    let mut iter = sections.into_iter();
    let net = iter
        .next()
        .filter(|s| s.name == "net" || s.name == "network")
        .ok_or(CfgError { line: 1, msg: "first section must be [net]".into() })?;
    let width = net.get_usize("width", 416)?;
    let height = net.get_usize("height", 416)?;
    let channels = net.get_usize("channels", 3)?;
    if width != height {
        return Err(CfgError { line: net.line, msg: "only square inputs supported".into() });
    }
    if width == 0 || channels == 0 {
        return Err(CfgError { line: net.line, msg: "input must be non-empty".into() });
    }
    let input = Shape { c: channels, h: height, w: width };

    let mut layers = Vec::new();
    let mut shapes: Vec<Shape> = Vec::new();
    for s in iter {
        let current = layers.len();
        match s.name.as_str() {
            "convolutional" => {
                let filters = s.get_usize("filters", 1)?;
                let size = s.get_usize("size", 1)?;
                let stride = s.get_usize("stride", 1)?;
                // Darknet: pad=1 means "use size/2 padding".
                let pad =
                    if s.get_usize("pad", 0)? == 1 { size / 2 } else { s.get_usize("padding", 0)? };
                let activation = match s.get("activation").unwrap_or("linear") {
                    "leaky" => Activation::Leaky,
                    "linear" => Activation::Linear,
                    other => {
                        return Err(CfgError {
                            line: s.line,
                            msg: format!("unsupported activation `{other}`"),
                        })
                    }
                };
                layers.push(LayerSpec::Conv(ConvSpec { filters, size, stride, pad, activation }));
            }
            "shortcut" => {
                let v: i64 = s
                    .get("from")
                    .ok_or(CfgError { line: s.line, msg: "[shortcut] needs `from`".into() })?
                    .trim()
                    .parse()
                    .map_err(|_| CfgError { line: s.line, msg: "bad `from`".into() })?;
                layers.push(LayerSpec::Shortcut { from: resolve_index(v, current, s.line)? });
            }
            "route" => {
                let list = s
                    .get("layers")
                    .ok_or(CfgError { line: s.line, msg: "[route] needs `layers`".into() })?;
                let mut resolved = Vec::new();
                for tok in list.split(',') {
                    let v: i64 = tok.trim().parse().map_err(|_| CfgError {
                        line: s.line,
                        msg: format!("bad route index `{tok}`"),
                    })?;
                    resolved.push(resolve_index(v, current, s.line)?);
                }
                layers.push(LayerSpec::Route { layers: resolved });
            }
            "maxpool" => {
                let size = s.get_usize("size", 2)?;
                let stride = s.get_usize("stride", size)?;
                let pad = s.get_usize("padding", 0)?;
                layers.push(LayerSpec::MaxPool { size, stride, pad });
            }
            "upsample" => {
                if s.get_usize("stride", 2)? != 2 {
                    return Err(CfgError { line: s.line, msg: "only stride-2 upsample".into() });
                }
                layers.push(LayerSpec::Upsample);
            }
            "yolo" => {
                let anchors_raw = s.get("anchors").unwrap_or("");
                let nums: Vec<f32> = anchors_raw
                    .split(',')
                    .filter(|t| !t.trim().is_empty())
                    .map(|t| t.trim().parse::<f32>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| CfgError { line: s.line, msg: "bad anchors".into() })?;
                let all: Vec<(f32, f32)> = nums.chunks_exact(2).map(|c| (c[0], c[1])).collect();
                let anchors = match s.get("mask") {
                    None => all,
                    Some(mask) => mask
                        .split(',')
                        .map(|t| {
                            let i: usize = t.trim().parse().map_err(|_| CfgError {
                                line: s.line,
                                msg: format!("bad mask entry `{t}`"),
                            })?;
                            all.get(i).copied().ok_or(CfgError {
                                line: s.line,
                                msg: format!("mask index {i} outside anchors"),
                            })
                        })
                        .collect::<Result<_, _>>()?,
                };
                layers.push(LayerSpec::Yolo { anchors });
            }
            other => {
                return Err(CfgError {
                    line: s.line,
                    msg: format!("unsupported section [{other}]"),
                })
            }
        }
        let prev = shapes.last().copied().unwrap_or(input);
        let layer = layers.last().expect("a layer was just pushed");
        let shape =
            layer.try_out_shape(prev, &shapes).map_err(|msg| CfgError { line: s.line, msg })?;
        shapes.push(shape);
    }
    Ok(NetworkConfig { name: name.to_owned(), input, layers })
}

/// Emit a [`NetworkConfig`] as Darknet `.cfg` text (relative indices for
/// shortcut/route references before the current layer, Darknet style).
#[must_use]
pub fn to_cfg(net: &NetworkConfig) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "[net]\nwidth={}\nheight={}\nchannels={}\n",
        net.input.w, net.input.h, net.input.c
    );
    for (i, layer) in net.layers.iter().enumerate() {
        match layer {
            LayerSpec::Conv(c) => {
                let act = match c.activation {
                    Activation::Leaky => "leaky",
                    Activation::Linear => "linear",
                };
                let _ = writeln!(
                    s,
                    "[convolutional]\nfilters={}\nsize={}\nstride={}\npad={}\nactivation={act}\n",
                    c.filters,
                    c.size,
                    c.stride,
                    usize::from(c.pad == c.size / 2 && c.pad > 0)
                );
            }
            LayerSpec::Shortcut { from } => {
                let _ = writeln!(s, "[shortcut]\nfrom={}\n", *from as i64 - i as i64);
            }
            LayerSpec::Route { layers } => {
                let list: Vec<String> =
                    layers.iter().map(|&l| (l as i64 - i as i64).to_string()).collect();
                let _ = writeln!(s, "[route]\nlayers={}\n", list.join(","));
            }
            LayerSpec::MaxPool { size, stride, pad } => {
                let _ = writeln!(s, "[maxpool]\nsize={size}\nstride={stride}\npadding={pad}\n");
            }
            LayerSpec::Upsample => {
                let _ = writeln!(s, "[upsample]\nstride=2\n");
            }
            LayerSpec::Yolo { anchors } => {
                let list: Vec<String> =
                    anchors.iter().flat_map(|&(w, h)| [format!("{w}"), format!("{h}")]).collect();
                let _ = writeln!(s, "[yolo]\nanchors={}\n", list.join(","));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::darknet::{darknet53_yolov3, tiny_config};

    #[test]
    fn parses_a_minimal_cfg() {
        let text = "\
            [net]\n\
            width=32\n\
            height=32\n\
            channels=3\n\
            \n\
            [convolutional]\n\
            filters=8\n\
            size=3\n\
            stride=1\n\
            pad=1\n\
            activation=leaky\n\
            \n\
            [convolutional]\n\
            filters=8\n\
            size=1\n\
            stride=1\n\
            activation=linear\n\
            \n\
            [shortcut]\n\
            from=-2\n\
            # a comment\n\
            \n\
            [route]\n\
            layers = -1, 0\n\
            \n\
            [upsample]\n\
            stride=2\n\
            \n\
            [yolo]\n\
            mask = 0,1\n\
            anchors = 10,14, 23,27, 37,58\n";
        let net = parse_cfg("mini", text).unwrap();
        assert_eq!(net.input, Shape { c: 3, h: 32, w: 32 });
        assert_eq!(net.layers.len(), 6);
        assert!(matches!(net.layers[2], LayerSpec::Shortcut { from: 0 }));
        assert!(matches!(&net.layers[3], LayerSpec::Route { layers } if layers == &vec![2, 0]));
        match &net.layers[5] {
            LayerSpec::Yolo { anchors } => {
                assert_eq!(anchors, &vec![(10.0, 14.0), (23.0, 27.0)]);
            }
            other => panic!("expected yolo, got {other:?}"),
        }
        // The route concatenates channels; the upsample doubles the edge.
        assert_eq!(net.shapes()[5], Shape { c: 16, h: 64, w: 64 });
    }

    #[test]
    fn rejects_shapes_that_do_not_follow_with_the_line() {
        let net = "[net]\nwidth=8\nheight=8\n";
        let err = |layers: &str| parse_cfg("x", &format!("{net}{layers}")).unwrap_err();
        let e = err("[convolutional]\nfilters=4\nsize=3\nstride=0\n");
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("stride"), "{e}");
        assert!(err("[maxpool]\nsize=2\nstride=0\n").msg.contains("stride"));
        let e = err("[convolutional]\nfilters=4\nsize=3\n[convolutional]\nsize=9\n");
        assert_eq!(e.line, 7);
        assert!(e.msg.contains("does not fit"), "{e}");
        let route = "[convolutional]\nfilters=4\n[maxpool]\nsize=2\n[route]\nlayers=-1,0\n";
        assert!(err(route).msg.contains("route spatial mismatch"));
        let shortcut =
            "[convolutional]\nfilters=4\n[convolutional]\nfilters=2\n[shortcut]\nfrom=-2\n";
        assert!(err(shortcut).msg.contains("shortcut shapes must match"));
        assert!(parse_cfg("x", "[net]\nwidth=0\nheight=0\n").unwrap_err().msg.contains("empty"));
    }

    #[test]
    fn round_trips_the_builtin_yolov3() {
        let net = darknet53_yolov3();
        let text = to_cfg(&net);
        let back = parse_cfg("yolov3-416", &text).unwrap();
        assert_eq!(back.input, net.input);
        assert_eq!(back.layers, net.layers);
        assert_eq!(back.total_macs(), net.total_macs());
    }

    #[test]
    fn round_trips_the_tiny_config() {
        let net = tiny_config();
        let back = parse_cfg(&net.name, &to_cfg(&net)).unwrap();
        assert_eq!(back.layers, net.layers);
        assert_eq!(back.shapes(), net.shapes());
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        assert!(parse_cfg("x", "filters=3\n").unwrap_err().msg.contains("before any"));
        let e = parse_cfg("x", "[net]\nwidth=416\nheight=416\n[bogus]\n").unwrap_err();
        assert_eq!(e.line, 4);
        let e2 = parse_cfg("x", "[net]\nwidth=32\nheight=32\n[shortcut]\nfrom=-5\n").unwrap_err();
        assert!(e2.msg.contains("resolves outside"));
        let e3 = parse_cfg("x", "[net]\nwidth=32\nheight=64\n").unwrap_err();
        assert!(e3.msg.contains("square"));
    }

    #[test]
    fn parsed_cfg_feeds_the_pipeline() {
        let net = tiny_config();
        let parsed = parse_cfg(&net.name, &to_cfg(&net)).unwrap();
        let input: Vec<f32> = vec![0.3; parsed.input.len()];
        let (heads, _) = crate::YoloPipeline::new(parsed).run(&input).unwrap();
        assert_eq!(heads.len(), 2);
    }
}
