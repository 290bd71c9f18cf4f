//! Message-to-bus-word layout planning.
//!
//! A channel access moves one *message* of `addr_bits + data_bits` bits
//! (address in the low positions). Protocol generation slices the message
//! into `ceil(message_bits / width)` bus words; for read channels the
//! words split by direction — address words flow requester→server, data
//! words flow back, and the word straddling the address/data boundary is
//! served in both directions within one handshake (requester drives the
//! address bits, the server answers with the data bits on the same
//! lines, exactly like a multiplexed-bus turnaround).
//!
//! This single packing rule makes the word count equal to
//! [`BusTiming::words`] for *every* direction — which is what makes the
//! paper's Fig. 7 curves flatten only past 23 pins (16 data + 7 address)
//! for both the writing and the reading process.
//!
//! [`BusTiming::words`]: ifsyn_estimate::BusTiming::words

use ifsyn_spec::{Channel, ChannelDirection};

/// Transfer direction of one bus word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordDir {
    /// Requester drives the word (write data, or read address).
    Request,
    /// Server drives the word (read data).
    Response,
    /// Requester drives the low (address) part, server answers with the
    /// high (data) part within the same handshake.
    Mixed,
}

/// One bus word of a message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSpec {
    /// Word index within the message (0 first).
    pub index: u32,
    /// Lowest message bit carried by this word.
    pub msg_lo: u32,
    /// Highest message bit carried by this word (inclusive).
    pub msg_hi: u32,
    /// Direction of the word.
    pub dir: WordDir,
}

impl WordSpec {
    /// Number of message bits in this word.
    pub fn bits(&self) -> u32 {
        self.msg_hi - self.msg_lo + 1
    }
}

/// The complete word layout for one channel on one bus width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordPlan {
    /// Bus width in bits.
    pub width: u32,
    /// Address bits of the message (low positions).
    pub addr_bits: u32,
    /// Data bits of the message (high positions).
    pub data_bits: u32,
    /// The words, in transfer order.
    pub words: Vec<WordSpec>,
}

impl WordPlan {
    /// Plans the word layout for `channel` on a `width`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the channel has a zero-bit message.
    pub fn for_channel(channel: &Channel, width: u32) -> Self {
        assert!(width > 0, "bus width must be positive");
        let a = channel.addr_bits;
        let d = channel.data_bits;
        let m = a + d;
        assert!(m > 0, "channel `{}` has a zero-bit message", channel.name);
        let n = m.div_ceil(width);
        let words = (0..n)
            .map(|i| {
                let msg_lo = i * width;
                let msg_hi = (msg_lo + width - 1).min(m - 1);
                let dir = match channel.direction {
                    ChannelDirection::Write => WordDir::Request,
                    ChannelDirection::Read => {
                        if msg_hi < a {
                            WordDir::Request
                        } else if msg_lo >= a {
                            WordDir::Response
                        } else {
                            WordDir::Mixed
                        }
                    }
                };
                WordSpec {
                    index: i,
                    msg_lo,
                    msg_hi,
                    dir,
                }
            })
            .collect();
        Self {
            width,
            addr_bits: a,
            data_bits: d,
            words,
        }
    }

    /// The layout protocol generation emits for `channel` on a
    /// `width`-bit bus, with the number of check words the integrity
    /// layer adds to it.
    ///
    /// Without `integrity` this is [`WordPlan::for_channel`] and no check
    /// words. With it, a read uses the direction-aligned layout, so its
    /// request and response runs are checksummed independently, and each
    /// direction run closes with one check word: one for a write; for a
    /// read, one after the response run plus one after the address run
    /// when the message has one.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or the channel has a zero-bit message.
    pub fn for_refinement(channel: &Channel, width: u32, integrity: bool) -> (Self, u32) {
        if !integrity {
            return (Self::for_channel(channel, width), 0);
        }
        let plan = Self::aligned_for_channel(channel, width);
        let address_run = channel.direction == ChannelDirection::Read
            && plan.words.iter().any(|w| w.dir == WordDir::Request);
        (plan, 1 + u32::from(address_run))
    }

    /// Plans a *direction-aligned* word layout: request words carry only
    /// address bits, response words only data bits, so no word straddles
    /// the boundary ([`WordDir::Mixed`] never appears).
    ///
    /// The integrity layer uses this layout for read channels so each
    /// direction can carry its own trailing check word; a message whose
    /// address does not fill a whole word costs up to one extra bus word
    /// compared to [`WordPlan::for_channel`]. Write channels and
    /// address-free reads plan identically either way.
    fn aligned_for_channel(channel: &Channel, width: u32) -> Self {
        assert!(width > 0, "bus width must be positive");
        let a = channel.addr_bits;
        let d = channel.data_bits;
        let m = a + d;
        assert!(m > 0, "channel `{}` has a zero-bit message", channel.name);
        if channel.direction == ChannelDirection::Write || a == 0 {
            return Self::for_channel(channel, width);
        }
        let mut words = Vec::new();
        let mut index = 0u32;
        let mut push_run = |words: &mut Vec<WordSpec>, lo: u32, hi: u32, dir: WordDir| {
            let mut msg_lo = lo;
            while msg_lo <= hi {
                let msg_hi = (msg_lo + width - 1).min(hi);
                words.push(WordSpec {
                    index,
                    msg_lo,
                    msg_hi,
                    dir,
                });
                index += 1;
                msg_lo = msg_hi + 1;
            }
        };
        push_run(&mut words, 0, a - 1, WordDir::Request);
        push_run(&mut words, a, m - 1, WordDir::Response);
        Self {
            width,
            addr_bits: a,
            data_bits: d,
            words,
        }
    }

    /// Total message bits.
    pub fn message_bits(&self) -> u32 {
        self.addr_bits + self.data_bits
    }

    /// Number of bus words.
    pub fn word_count(&self) -> u32 {
        self.words.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsyn_spec::{BehaviorId, VarId};

    fn channel(direction: ChannelDirection, data: u32, addr: u32) -> Channel {
        Channel {
            name: "ch".into(),
            accessor: BehaviorId::new(0),
            variable: VarId::new(0),
            direction,
            data_bits: data,
            addr_bits: addr,
            accesses: 1,
        }
    }

    #[test]
    fn write_channel_words_are_all_requests() {
        let ch = channel(ChannelDirection::Write, 16, 7);
        let plan = WordPlan::for_channel(&ch, 8);
        assert_eq!(plan.word_count(), 3); // ceil(23/8)
        assert!(plan.words.iter().all(|w| w.dir == WordDir::Request));
        assert_eq!(plan.words[2].msg_hi, 22);
        assert_eq!(plan.words[2].bits(), 7);
    }

    #[test]
    fn read_channel_splits_by_address_boundary() {
        // 7 addr + 16 data on width 8: word0 = bits 0..7 (addr 0..6 +
        // data bit 7) -> Mixed; word1, word2 -> Response.
        let ch = channel(ChannelDirection::Read, 16, 7);
        let plan = WordPlan::for_channel(&ch, 8);
        assert_eq!(plan.word_count(), 3);
        assert_eq!(plan.words[0].dir, WordDir::Mixed);
        assert_eq!(plan.words[1].dir, WordDir::Response);
        assert_eq!(plan.words[2].dir, WordDir::Response);
    }

    #[test]
    fn narrow_read_has_pure_address_words() {
        let ch = channel(ChannelDirection::Read, 16, 7);
        let plan = WordPlan::for_channel(&ch, 4);
        // words: 0..3 addr(0-3), 4..6+7 mixed(4-7), rest response.
        assert_eq!(plan.words[0].dir, WordDir::Request);
        assert_eq!(plan.words[1].dir, WordDir::Mixed);
        assert!(plan.words[2..].iter().all(|w| w.dir == WordDir::Response));
        assert_eq!(plan.word_count(), 6); // ceil(23/4)
    }

    #[test]
    fn exact_boundary_has_no_mixed_word() {
        // addr 8, data 16, width 8: word0 pure addr, words 1-2 pure data.
        let ch = channel(ChannelDirection::Read, 16, 8);
        let plan = WordPlan::for_channel(&ch, 8);
        assert_eq!(plan.words[0].dir, WordDir::Request);
        assert_eq!(plan.words[1].dir, WordDir::Response);
        assert_eq!(plan.words[2].dir, WordDir::Response);
    }

    #[test]
    fn scalar_read_is_all_response() {
        let ch = channel(ChannelDirection::Read, 16, 0);
        let plan = WordPlan::for_channel(&ch, 8);
        assert!(plan.words.iter().all(|w| w.dir == WordDir::Response));
    }

    #[test]
    fn wide_bus_gives_single_word() {
        let ch = channel(ChannelDirection::Read, 16, 7);
        let plan = WordPlan::for_channel(&ch, 23);
        assert_eq!(plan.word_count(), 1);
        assert_eq!(plan.words[0].dir, WordDir::Mixed);
        let plan = WordPlan::for_channel(&ch, 64);
        assert_eq!(plan.word_count(), 1);
    }

    #[test]
    fn word_count_matches_bus_timing() {
        use ifsyn_estimate::BusTiming;
        for dir in [ChannelDirection::Read, ChannelDirection::Write] {
            for (d, a) in [(16, 7), (16, 0), (8, 6), (1, 1), (32, 11)] {
                let ch = channel(dir, d, a);
                for w in 1..=40 {
                    let plan = WordPlan::for_channel(&ch, w);
                    let timing = BusTiming::new(w, 2);
                    assert_eq!(
                        plan.word_count(),
                        timing.words(ch.message_bits()),
                        "dir {dir:?} d{d} a{a} w{w}"
                    );
                }
            }
        }
    }

    #[test]
    fn words_cover_message_exactly_once() {
        let ch = channel(ChannelDirection::Read, 16, 7);
        for w in 1..=30 {
            let plan = WordPlan::for_channel(&ch, w);
            let mut covered = [false; 23];
            for word in &plan.words {
                for bit in word.msg_lo..=word.msg_hi {
                    assert!(!covered[bit as usize], "bit {bit} covered twice");
                    covered[bit as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "width {w} left bits uncovered");
        }
    }

    #[test]
    fn aligned_read_plan_has_no_mixed_words() {
        let ch = channel(ChannelDirection::Read, 16, 7);
        for w in 1..=30 {
            let plan = WordPlan::aligned_for_channel(&ch, w);
            assert!(
                plan.words.iter().all(|word| word.dir != WordDir::Mixed),
                "width {w} produced a mixed word"
            );
            let mut covered = [false; 23];
            for word in &plan.words {
                for bit in word.msg_lo..=word.msg_hi {
                    assert!(!covered[bit as usize], "bit {bit} covered twice");
                    covered[bit as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "width {w} left bits uncovered");
        }
    }

    #[test]
    fn aligned_read_plan_splits_at_address_boundary() {
        // 7 addr + 16 data on width 16: one pure address word, one pure
        // data word — where the straddling plan needs a Mixed turnaround.
        let ch = channel(ChannelDirection::Read, 16, 7);
        let plan = WordPlan::aligned_for_channel(&ch, 16);
        assert_eq!(plan.word_count(), 2);
        assert_eq!(plan.words[0].dir, WordDir::Request);
        assert_eq!((plan.words[0].msg_lo, plan.words[0].msg_hi), (0, 6));
        assert_eq!(plan.words[1].dir, WordDir::Response);
        assert_eq!((plan.words[1].msg_lo, plan.words[1].msg_hi), (7, 22));
    }

    #[test]
    fn refinement_layout_adds_one_check_word_per_direction_run() {
        let write = channel(ChannelDirection::Write, 16, 7);
        let scalar_read = channel(ChannelDirection::Read, 16, 0);
        let addressed_read = channel(ChannelDirection::Read, 16, 7);
        for (ch, checks) in [(&write, 1), (&scalar_read, 1), (&addressed_read, 2)] {
            let protected = WordPlan::for_refinement(ch, 8, true);
            assert_eq!(protected, (WordPlan::aligned_for_channel(ch, 8), checks));
            let plain = WordPlan::for_refinement(ch, 8, false);
            assert_eq!(plain, (WordPlan::for_channel(ch, 8), 0));
        }
    }

    #[test]
    fn aligned_plan_matches_plain_for_writes_and_scalar_reads() {
        let wr = channel(ChannelDirection::Write, 16, 7);
        let rd = channel(ChannelDirection::Read, 16, 0);
        for w in 1..=24 {
            assert_eq!(
                WordPlan::aligned_for_channel(&wr, w),
                WordPlan::for_channel(&wr, w)
            );
            assert_eq!(
                WordPlan::aligned_for_channel(&rd, w),
                WordPlan::for_channel(&rd, w)
            );
        }
    }
}
