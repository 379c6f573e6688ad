//! The power macromodel library: a keyed collection of characterized
//! models with text (de)serialization — the artifact the paper's flow
//! consults during "power model inference" (Figure 2, step 1).

use crate::characterize::{
    characterize, is_modelled_kind, CharacterizationReport, CharacterizeConfig, CharacterizeError,
};
use crate::model::{Macromodel, ModelKey, MonitoredLayout};
use pe_gate::cells::CellLibrary;
use pe_rtl::{Component, ComponentKind, Design};
use std::collections::HashMap;
use std::fmt;

/// A library of characterized macromodels, keyed by component class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelLibrary {
    models: HashMap<ModelKey, Macromodel>,
}

/// Error from [`ModelLibrary::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryParseError {
    line: usize,
    message: String,
}

impl fmt::Display for LibraryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LibraryParseError {}

impl ModelLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Inserts (or replaces) a model, returning the previous one if any.
    pub fn insert(&mut self, key: ModelKey, model: Macromodel) -> Option<Macromodel> {
        self.models.insert(key, model)
    }

    /// Looks up the model for a class.
    pub fn get(&self, key: &ModelKey) -> Option<&Macromodel> {
        self.models.get(key)
    }

    /// Looks up the model for a concrete component instance. Returns
    /// `None` both for unmodelled kinds (constants and pure wiring, which
    /// consume no modelled energy) and for classes that were never
    /// characterized — callers distinguish via
    /// [`ModelLibrary::is_covered`].
    pub fn model_for(&self, design: &Design, component: &Component) -> Option<&Macromodel> {
        if !is_modelled_kind(component.kind()) {
            return None;
        }
        self.models.get(&ModelKey::of(design, component))
    }

    /// Whether every modelled component class of `design` has a model.
    pub fn is_covered(&self, design: &Design) -> bool {
        design.components().iter().all(|c| {
            !is_modelled_kind(c.kind()) || self.models.contains_key(&ModelKey::of(design, c))
        })
    }

    /// Characterizes every class in `design` that is missing from the
    /// library, using the reference cell library. Returns the reports of
    /// the classes characterized by this call.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CharacterizeError`].
    pub fn characterize_design(
        &mut self,
        design: &Design,
        config: &CharacterizeConfig,
    ) -> Result<Vec<CharacterizationReport>, CharacterizeError> {
        self.characterize_design_with_cells(design, &CellLibrary::cmos130(), config)
    }

    /// As [`ModelLibrary::characterize_design`], with an explicit cell
    /// library.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CharacterizeError`].
    pub fn characterize_design_with_cells(
        &mut self,
        design: &Design,
        cells: &CellLibrary,
        config: &CharacterizeConfig,
    ) -> Result<Vec<CharacterizationReport>, CharacterizeError> {
        let mut reports = Vec::new();
        // Deterministic order: first-appearance order in the component list.
        let mut seen: Vec<ModelKey> = Vec::new();
        for comp in design.components() {
            if !is_modelled_kind(comp.kind()) {
                continue;
            }
            let key = ModelKey::of(design, comp);
            if self.models.contains_key(&key) || seen.contains(&key) {
                continue;
            }
            seen.push(key);
        }
        for key in seen {
            let (model, report) = characterize(&key, cells, config)?;
            self.models.insert(key, model);
            reports.push(report);
        }
        Ok(reports)
    }

    /// Iterates models in an unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&ModelKey, &Macromodel)> {
        self.models.iter()
    }

    /// Serializes the library to its text format (sorted by key display
    /// for stable diffs).
    pub fn to_text(&self) -> String {
        let mut entries: Vec<(&ModelKey, &Macromodel)> = self.models.iter().collect();
        entries.sort_by_key(|(k, _)| k.to_string());
        let mut out = String::from("# power macromodel library\n");
        for (key, model) in entries {
            let dups = if key.is_distinct() {
                String::new()
            } else {
                format!(
                    " dups={}",
                    key.dup_groups
                        .iter()
                        .map(|g| g.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            out.push_str(&format!(
                "model {} {} {}{dups} form=perbit base={} coeffs={}\n",
                kind_to_text(&key.kind),
                key.in_widths
                    .iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                key.out_width,
                model.base_fj(),
                model
                    .coeffs()
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ));
        }
        out
    }

    /// Parses a library from its text format.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryParseError`] with the offending line.
    pub fn from_text(text: &str) -> Result<Self, LibraryParseError> {
        let mut lib = Self::new();
        for (lineno, raw) in text.lines().enumerate() {
            let err = |message: String| LibraryParseError {
                line: lineno + 1,
                message,
            };
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            if tokens[0] != "model" || tokens.len() < 4 {
                return Err(err("expected `model <kind> <in_widths> <out> …`".into()));
            }
            let kind = kind_from_text(tokens[1]).map_err(&err)?;
            let in_widths: Vec<u32> = if tokens[2] == "-" {
                Vec::new()
            } else {
                tokens[2]
                    .split(',')
                    .map(|t| t.parse().map_err(|_| err(format!("bad width `{t}`"))))
                    .collect::<Result<_, _>>()?
            };
            let out_width: u32 = tokens[3]
                .parse()
                .map_err(|_| err(format!("bad out width `{}`", tokens[3])))?;
            if in_widths
                .iter()
                .chain([&out_width])
                .any(|&w| w == 0 || w > 64)
            {
                return Err(err("widths must lie in 1..=64".into()));
            }
            let mut base = 0.0f64;
            let mut coeffs: Vec<f64> = Vec::new();
            let mut dup_groups: Option<Vec<u8>> = None;
            for tok in &tokens[4..] {
                if let Some((k, v)) = tok.split_once('=') {
                    match k {
                        "dups" => {
                            dup_groups = Some(
                                v.split(',')
                                    .map(|g| g.parse().map_err(|_| err(format!("bad group `{g}`"))))
                                    .collect::<Result<_, _>>()?,
                            );
                        }
                        "form" => {
                            if v != "perbit" {
                                return Err(err(format!("unknown form `{v}`")));
                            }
                        }
                        "base" => base = v.parse().map_err(|_| err(format!("bad base `{v}`")))?,
                        "coeffs" => {
                            if !v.is_empty() {
                                coeffs = v
                                    .split(',')
                                    .map(|c| c.parse().map_err(|_| err(format!("bad coeff `{c}`"))))
                                    .collect::<Result<_, _>>()?;
                            }
                        }
                        _ => return Err(err(format!("unknown attribute `{k}`"))),
                    }
                }
            }
            let key = match dup_groups {
                Some(dup_groups) => {
                    if dup_groups.len() != in_widths.len() {
                        return Err(err("dups length mismatch".into()));
                    }
                    // Groups are numbered by first occurrence: each index
                    // repeats an earlier group or opens the next one.
                    let mut groups = 0usize;
                    for &g in &dup_groups {
                        let g = usize::from(g);
                        if g > groups {
                            return Err(err(format!("dups group {g} skips group {groups}")));
                        }
                        if g == groups {
                            groups += 1;
                        }
                    }
                    ModelKey {
                        kind,
                        in_widths,
                        out_width,
                        dup_groups,
                    }
                }
                None => ModelKey::distinct(kind, in_widths, out_width),
            };
            let layout = MonitoredLayout::of(&key);
            let expected = layout.total_bits() as usize;
            if coeffs.len() != expected {
                return Err(err(format!(
                    "model {key} expects {expected} coefficients, got {}",
                    coeffs.len()
                )));
            }
            lib.models
                .insert(key, Macromodel::new(base, coeffs, layout));
        }
        Ok(lib)
    }
}

/// Compact single-token serialization of a [`ComponentKind`] (parameters
/// attached with `:`).
fn kind_to_text(kind: &ComponentKind) -> String {
    match kind {
        ComponentKind::Slice { lo } => format!("slice:{lo}"),
        ComponentKind::Const { value } => format!("const:{value}"),
        ComponentKind::Table { table } => format!(
            "table:{}",
            table
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(";")
        ),
        ComponentKind::Register { init, has_enable } => match init {
            Some(v) => format!("reg:{v}:{}", u8::from(*has_enable)),
            None => format!("reg:x:{}", u8::from(*has_enable)),
        },
        ComponentKind::Memory { words, init } => match init {
            None => format!("mem:{words}"),
            Some(init) => format!(
                "mem:{words}:{}",
                init.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(";")
            ),
        },
        other => other.mnemonic().to_string(),
    }
}

fn kind_from_text(token: &str) -> Result<ComponentKind, String> {
    let mut parts = token.split(':');
    let head = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let parse_u64 =
        |s: &str| -> Result<u64, String> { s.parse().map_err(|_| format!("bad number `{s}`")) };
    let parse_list = |s: &str| -> Result<Vec<u64>, String> {
        if s.is_empty() {
            Ok(Vec::new())
        } else {
            s.split(';').map(parse_u64).collect()
        }
    };
    Ok(match head {
        "add" => ComponentKind::Add,
        "sub" => ComponentKind::Sub,
        "mul" => ComponentKind::Mul,
        "neg" => ComponentKind::Neg,
        "eq" => ComponentKind::Eq,
        "ne" => ComponentKind::Ne,
        "lt" => ComponentKind::Lt,
        "le" => ComponentKind::Le,
        "slt" => ComponentKind::SLt,
        "sle" => ComponentKind::SLe,
        "and" => ComponentKind::And,
        "or" => ComponentKind::Or,
        "xor" => ComponentKind::Xor,
        "not" => ComponentKind::Not,
        "redand" => ComponentKind::RedAnd,
        "redor" => ComponentKind::RedOr,
        "redxor" => ComponentKind::RedXor,
        "shl" => ComponentKind::Shl,
        "shr" => ComponentKind::Shr,
        "sar" => ComponentKind::Sar,
        "mux" => ComponentKind::Mux,
        "concat" => ComponentKind::Concat,
        "zext" => ComponentKind::ZeroExt,
        "sext" => ComponentKind::SignExt,
        "slice" => ComponentKind::Slice {
            lo: parse_u64(rest.first().ok_or("slice needs a parameter")?)? as u32,
        },
        "const" => ComponentKind::Const {
            value: parse_u64(rest.first().ok_or("const needs a parameter")?)?,
        },
        "table" => ComponentKind::Table {
            table: parse_list(rest.first().ok_or("table needs entries")?)?,
        },
        "reg" => ComponentKind::Register {
            init: match rest.first().ok_or("reg needs init")? {
                &"x" => None,
                raw => Some(parse_u64(raw)?),
            },
            has_enable: rest.get(1) == Some(&"1"),
        },
        "mem" => ComponentKind::Memory {
            words: parse_u64(rest.first().ok_or("mem needs words")?)? as u32,
            init: match rest.get(1) {
                Some(list) => Some(parse_list(list)?),
                None => None,
            },
        },
        other => return Err(format!("unknown kind `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_rtl::builder::DesignBuilder;

    fn small_design() -> Design {
        let mut b = DesignBuilder::new("d");
        let clk = b.clock("clk");
        let a = b.input("a", 4);
        let c = b.input("b", 4);
        let s = b.add(a, c);
        let s2 = b.add(a, c); // same class — must share a model
        let x = b.xor(s, s2);
        let q = b.pipeline_reg("q", x, 0, clk);
        b.output("q", q);
        b.finish().unwrap()
    }

    #[test]
    fn characterize_design_dedupes_classes() {
        let d = small_design();
        let mut lib = ModelLibrary::new();
        let reports = lib
            .characterize_design(&d, &CharacterizeConfig::fast())
            .unwrap();
        // Classes: add(4,4→4), xor(4,4→4), reg(4→4) — the two adders share.
        assert_eq!(reports.len(), 3);
        assert_eq!(lib.len(), 3);
        assert!(lib.is_covered(&d));
        // Second call characterizes nothing new.
        let again = lib
            .characterize_design(&d, &CharacterizeConfig::fast())
            .unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn model_for_returns_none_for_wiring() {
        let mut b = DesignBuilder::new("w");
        let a = b.input("a", 8);
        let s = b.slice(a, 0, 4);
        b.output("s", s);
        let d = b.finish().unwrap();
        let lib = ModelLibrary::new();
        let slice = d.components().first().unwrap();
        assert!(lib.model_for(&d, slice).is_none());
        assert!(lib.is_covered(&d)); // wiring needs no model
    }

    #[test]
    fn text_round_trip() {
        let d = small_design();
        let mut lib = ModelLibrary::new();
        lib.characterize_design(&d, &CharacterizeConfig::fast())
            .unwrap();
        let text = lib.to_text();
        let lib2 = ModelLibrary::from_text(&text).unwrap();
        assert_eq!(lib, lib2);
        // Round-trip is a fixed point.
        assert_eq!(text, lib2.to_text());
    }

    #[test]
    fn text_round_trip_with_parameterized_kinds() {
        let mut lib = ModelLibrary::new();
        for kind in [
            ComponentKind::Table {
                table: vec![3, 1, 4, 1],
            },
            ComponentKind::Register {
                init: Some(9),
                has_enable: true,
            },
            ComponentKind::Memory {
                words: 8,
                init: Some(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            },
        ] {
            let key = match &kind {
                ComponentKind::Table { .. } => ModelKey::distinct(kind.clone(), vec![2], 3),
                ComponentKind::Register { .. } => ModelKey::distinct(kind.clone(), vec![4, 1], 4),
                _ => {
                    // Exercise a duplicated-input signature round trip.
                    ModelKey {
                        kind: kind.clone(),
                        in_widths: vec![3, 3, 4, 1],
                        out_width: 4,
                        dup_groups: vec![0, 0, 1, 2],
                    }
                }
            };
            let layout = MonitoredLayout::of(&key);
            let n = layout.total_bits() as usize;
            lib.insert(key, Macromodel::new(1.25, vec![0.5; n], layout));
        }
        let text = lib.to_text();
        let lib2 = ModelLibrary::from_text(&text).unwrap();
        assert_eq!(lib, lib2);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ModelLibrary::from_text("nonsense\n").is_err());
        assert!(ModelLibrary::from_text("model add 4,4 4 form=bogus base=0 coeffs=\n").is_err());
        assert!(
            ModelLibrary::from_text("model add 4,4 4 form=perbit base=0 coeffs=1,2\n").is_err(),
            "coefficient count mismatch must be rejected"
        );
        assert!(
            ModelLibrary::from_text("model add 8,8 8 dups=0,7 base=1 coeffs=\n").is_err(),
            "group indices must be dense in first-occurrence order"
        );
        assert!(
            ModelLibrary::from_text("model add 4294967295,1 8 base=1 coeffs=\n").is_err(),
            "widths outside 1..=64 must be rejected"
        );
        assert!(ModelLibrary::from_text("model not 1 0 base=1 coeffs=0.5\n").is_err());
        // Comments and blanks are fine.
        assert!(ModelLibrary::from_text("# empty\n\n").unwrap().is_empty());
    }

    #[test]
    fn to_text_keeps_its_bytes() {
        let key = ModelKey::distinct(ComponentKind::Not, vec![1], 1);
        let layout = MonitoredLayout::of(&key);
        let mut lib = ModelLibrary::new();
        lib.insert(key, Macromodel::new(1.25, vec![0.5, 0.25], layout));
        assert_eq!(
            lib.to_text(),
            "# power macromodel library\n\
             model not 1 1 form=perbit base=1.25 coeffs=0.5,0.25\n"
        );
    }
}
