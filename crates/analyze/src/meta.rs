//! Bus metadata: the sidecar that tells the analyzer what the wires mean.
//!
//! A VCD file records raw signal changes; turning those into per-channel
//! traffic requires knowing which signal is the START line, which values
//! of the ID lines address which channel, and how many bus words one
//! message occupies. [`BusMeta`] carries exactly that, either built
//! in-process from a refined system ([`BusMeta::from_refined`]) or read
//! back from the JSON sidecar the CLI writes next to the VCD
//! ([`BusMeta::to_json`] writes it, [`BusMeta::from_json`] parses it).

use std::fmt::Write as _;

use ifsyn_core::RefinedSystem;

use crate::error::AnalyzeError;
use crate::json::{self, Json};

/// Schema tag of the metadata sidecar.
pub const META_SCHEMA: &str = "ifsyn-bus-meta-v1";

/// Everything the analyzer needs to know about one generated bus.
#[derive(Debug, Clone, PartialEq)]
pub struct BusMeta {
    /// Bus name prefix (e.g. `B`).
    pub bus: String,
    /// Protocol name (e.g. `full-handshake`).
    pub protocol: String,
    /// Data-line count the bus was generated with.
    pub width: u32,
    /// Nominal word time of the protocol, in clocks.
    pub cycles_per_word: u32,
    /// Name of the START control line, if the protocol has one.
    pub start: Option<String>,
    /// Name of the DONE control line (full handshake only).
    pub done: Option<String>,
    /// Name of the ID (mode) lines, absent for single-channel buses.
    pub id: Option<String>,
    /// Name of the shared data lines.
    pub data: Option<String>,
    /// The channels multiplexed onto the bus.
    pub channels: Vec<ChannelMeta>,
}

/// One channel's share of the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelMeta {
    /// Channel name from the specification.
    pub name: String,
    /// Value of the ID lines that addresses this channel, if any.
    pub id_code: Option<u64>,
    /// Bits per message (data + address).
    pub message_bits: u32,
    /// Bus words one message occupies at the generated width.
    pub words_per_message: u32,
    /// Name of the accessing behavior (for lifetime lookup).
    pub accessor: String,
}

impl BusMeta {
    /// Extracts the metadata from a refined system.
    pub fn from_refined(refined: &RefinedSystem) -> Self {
        let sys = &refined.system;
        let bus = &refined.bus;
        let design = &bus.design;
        let timing = design.protocol.timing(design.width);
        let name_of = |sig: Option<ifsyn_spec::SignalId>| sig.map(|s| sys.signal(s).name.clone());
        let channels = design
            .channels
            .iter()
            .map(|&ch| {
                let c = sys.channel(ch);
                ChannelMeta {
                    name: c.name.clone(),
                    id_code: bus.id_code(ch),
                    message_bits: c.message_bits(),
                    words_per_message: timing.words(c.message_bits()),
                    accessor: sys.behavior(c.accessor).name.clone(),
                }
            })
            .collect();
        Self {
            bus: bus.name.clone(),
            protocol: design.protocol.name().to_string(),
            width: design.width,
            cycles_per_word: design.protocol.cycles_per_word(),
            start: name_of(bus.start),
            done: name_of(bus.done),
            id: name_of(bus.id),
            data: name_of(bus.data),
            channels,
        }
    }

    /// The channel addressed by `id_code`, or the only channel when the
    /// bus carries no ID lines.
    pub fn channel_for(&self, id_code: Option<u64>) -> Option<&ChannelMeta> {
        if self.channels.len() == 1 && self.id.is_none() {
            return self.channels.first();
        }
        let code = id_code?;
        self.channels.iter().find(|c| c.id_code == Some(code))
    }

    /// Renders the metadata as its JSON sidecar format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{META_SCHEMA}\",");
        let _ = writeln!(out, "  \"bus\": {},", json_str(&self.bus));
        let _ = writeln!(out, "  \"protocol\": {},", json_str(&self.protocol));
        let _ = writeln!(out, "  \"width\": {},", self.width);
        let _ = writeln!(out, "  \"cycles_per_word\": {},", self.cycles_per_word);
        let opt = |v: &Option<String>| match v {
            Some(s) => json_str(s),
            None => "null".to_string(),
        };
        let _ = writeln!(out, "  \"signals\": {{");
        let _ = writeln!(out, "    \"start\": {},", opt(&self.start));
        let _ = writeln!(out, "    \"done\": {},", opt(&self.done));
        let _ = writeln!(out, "    \"id\": {},", opt(&self.id));
        let _ = writeln!(out, "    \"data\": {}", opt(&self.data));
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"channels\": [");
        for (i, ch) in self.channels.iter().enumerate() {
            let comma = if i + 1 < self.channels.len() { "," } else { "" };
            let code = ch
                .id_code
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string());
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"id_code\": {}, \"message_bits\": {}, \
                 \"words_per_message\": {}, \"accessor\": {}}}{comma}",
                json_str(&ch.name),
                code,
                ch.message_bits,
                ch.words_per_message,
                json_str(&ch.accessor)
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Parses the JSON sidecar format.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::Meta`] on malformed JSON, a wrong schema
    /// tag, or a missing required field.
    pub fn from_json(text: &str) -> Result<Self, AnalyzeError> {
        let doc = json::parse(text).map_err(AnalyzeError::Meta)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != META_SCHEMA {
            return Err(AnalyzeError::Meta(format!(
                "unsupported schema `{schema}` (expected `{META_SCHEMA}`)"
            )));
        }
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| AnalyzeError::Meta(format!("missing string field `{key}`")))
        };
        let num_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| AnalyzeError::Meta(format!("missing numeric field `{key}`")))
        };
        let signals = doc.get("signals");
        let sig = |key: &str| {
            signals
                .and_then(|s| s.get(key))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let channel_items = doc
            .get("channels")
            .and_then(Json::as_array)
            .ok_or_else(|| AnalyzeError::Meta("missing `channels` array".into()))?;
        let mut channels = Vec::with_capacity(channel_items.len());
        for (i, item) in channel_items.iter().enumerate() {
            let ch_str = |key: &str| {
                item.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        AnalyzeError::Meta(format!("channel {i}: missing string field `{key}`"))
                    })
            };
            let ch_num = |key: &str| {
                item.get(key).and_then(Json::as_u64).ok_or_else(|| {
                    AnalyzeError::Meta(format!("channel {i}: missing numeric field `{key}`"))
                })
            };
            channels.push(ChannelMeta {
                name: ch_str("name")?,
                id_code: item.get("id_code").and_then(Json::as_u64),
                message_bits: ch_num("message_bits")? as u32,
                words_per_message: ch_num("words_per_message")? as u32,
                accessor: ch_str("accessor")?,
            });
        }
        if channels.is_empty() {
            return Err(AnalyzeError::Meta("`channels` must not be empty".into()));
        }
        Ok(Self {
            bus: str_field("bus")?,
            protocol: str_field("protocol")?,
            width: num_field("width")? as u32,
            cycles_per_word: num_field("cycles_per_word")? as u32,
            start: sig("start"),
            done: sig("done"),
            id: sig("id"),
            data: sig("data"),
            channels,
        })
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BusMeta {
        BusMeta {
            bus: "B".into(),
            protocol: "full-handshake".into(),
            width: 8,
            cycles_per_word: 2,
            start: Some("B_START".into()),
            done: Some("B_DONE".into()),
            id: Some("B_ID".into()),
            data: Some("B_DATA".into()),
            channels: vec![
                ChannelMeta {
                    name: "ch1".into(),
                    id_code: Some(0),
                    message_bits: 23,
                    words_per_message: 3,
                    accessor: "EVAL_R3".into(),
                },
                ChannelMeta {
                    name: "ch2".into(),
                    id_code: Some(1),
                    message_bits: 23,
                    words_per_message: 3,
                    accessor: "CONV_R2".into(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let meta = sample();
        assert_eq!(BusMeta::from_json(&meta.to_json()).unwrap(), meta);
    }

    #[test]
    fn optional_signals_round_trip_as_null() {
        let mut meta = sample();
        meta.done = None;
        meta.id = None;
        let text = meta.to_json();
        assert!(text.contains("\"done\": null"), "{text}");
        assert_eq!(BusMeta::from_json(&text).unwrap(), meta);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = sample().to_json().replace(META_SCHEMA, "something-else");
        assert!(matches!(
            BusMeta::from_json(&text),
            Err(AnalyzeError::Meta(_))
        ));
    }

    #[test]
    fn channel_lookup_by_id_code() {
        let meta = sample();
        assert_eq!(meta.channel_for(Some(1)).unwrap().name, "ch2");
        assert_eq!(meta.channel_for(Some(7)), None);
        assert_eq!(meta.channel_for(None), None, "multi-channel needs a code");
    }

    #[test]
    fn single_channel_bus_needs_no_id() {
        let mut meta = sample();
        meta.id = None;
        meta.channels.truncate(1);
        meta.channels[0].id_code = None;
        assert_eq!(meta.channel_for(None).unwrap().name, "ch1");
    }

    /// One process writing an 8-entry array over a single-channel bus.
    fn refined() -> RefinedSystem {
        use ifsyn_core::{BusGenerator, ProtocolGenerator};
        use ifsyn_spec::dsl::*;
        use ifsyn_spec::{Channel, ChannelDirection, System, Ty};

        let mut sys = System::new("t");
        let m = sys.add_module("chip");
        let p = sys.add_behavior("P", m);
        let owner = sys.add_behavior("MEMPROC", m);
        let mem = sys.add_variable("MEM", Ty::array(Ty::Int(16), 8), owner);
        let i = sys.add_variable("i", Ty::Int(16), p);
        let ch = sys.add_channel(Channel {
            name: "ch".into(),
            accessor: p,
            variable: mem,
            direction: ChannelDirection::Write,
            data_bits: 16,
            addr_bits: 3,
            accesses: 8,
        });
        sys.behavior_mut(p).body = vec![for_loop(
            var(i),
            int_const(0, 16),
            int_const(7, 16),
            vec![send_at(ch, load(var(i)), load(var(i)))],
        )];
        let design = BusGenerator::new().generate(&sys, &[ch]).unwrap();
        ProtocolGenerator::new().refine(&sys, &design).unwrap()
    }

    #[test]
    fn sidecar_names_the_wires_and_channels() {
        let text = BusMeta::from_refined(&refined()).to_json();
        assert!(text.contains("\"schema\": \"ifsyn-bus-meta-v1\""), "{text}");
        assert!(text.contains("\"start\": \"B_START\""), "{text}");
        assert!(text.contains("\"done\": \"B_DONE\""), "{text}");
        assert!(text.contains("\"id\": null"), "single channel: {text}");
        assert!(text.contains("\"name\": \"ch\""), "{text}");
        assert!(text.contains("\"accessor\": \"P\""), "{text}");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
