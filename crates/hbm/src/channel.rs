//! A single HBM channel with an open-page row buffer.

/// Whether an access hit the open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The addressed row was already open.
    Hit,
    /// A different (or no) row was open; an activation was required.
    Miss,
}

/// One channel's state and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    open_row: Option<u64>,
    busy_cycles: u64,
    activations: u64,
    read_bytes: u64,
    write_bytes: u64,
}

impl Channel {
    /// A fresh channel with no open row.
    pub fn new() -> Self {
        Self {
            open_row: None,
            busy_cycles: 0,
            activations: 0,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    /// Accesses `bytes` bytes in `row` as one transfer, returning the
    /// row-buffer outcome and accumulating the channel's busy time.
    ///
    /// * `bytes_per_cycle` — channel beat width (16 B for HBM2 @ 2 GHz).
    /// * `activation_cycles` — row activate + precharge penalty on a miss.
    pub fn access(
        &mut self,
        row: u64,
        bytes: u64,
        is_write: bool,
        bytes_per_cycle: u64,
        activation_cycles: u64,
    ) -> RowBufferOutcome {
        let outcome = self.open_rows(row, row, 1, activation_cycles);
        self.transfer(bytes.div_ceil(bytes_per_cycle), bytes, is_write);
        outcome
    }

    /// Opens `rows` distinct rows in increasing order, `first` to
    /// `last`, and returns the first's outcome: a hit if it is already
    /// open, otherwise a miss. Every later row is a miss; each miss pays
    /// `activation_cycles`.
    pub fn open_rows(
        &mut self,
        first: u64,
        last: u64,
        rows: u64,
        activation_cycles: u64,
    ) -> RowBufferOutcome {
        let outcome = if self.open_row == Some(first) {
            RowBufferOutcome::Hit
        } else {
            RowBufferOutcome::Miss
        };
        let activations = rows - u64::from(outcome == RowBufferOutcome::Hit);
        self.open_row = Some(last);
        self.activations += activations;
        self.busy_cycles += activations * activation_cycles;
        outcome
    }

    /// Moves `bytes` bytes in `beats` beats.
    pub fn transfer(&mut self, beats: u64, bytes: u64, is_write: bool) {
        self.busy_cycles += beats;
        if is_write {
            self.write_bytes += bytes;
        } else {
            self.read_bytes += bytes;
        }
    }

    /// Total busy cycles accumulated.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Row activations performed.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Clears the busy-cycle counter (start of a new drain window) but keeps
    /// the row buffer and lifetime counters.
    pub fn start_window(&mut self) {
        self.busy_cycles = 0;
    }
}

impl Default for Channel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut ch = Channel::new();
        assert_eq!(ch.access(3, 32, false, 16, 10), RowBufferOutcome::Miss);
        assert_eq!(ch.access(3, 32, false, 16, 10), RowBufferOutcome::Hit);
        assert_eq!(ch.activations(), 1);
        // miss: 10 activation + 2 transfer; hit: 2 transfer
        assert_eq!(ch.busy_cycles(), 14);
    }

    #[test]
    fn row_switch_reactivates() {
        let mut ch = Channel::new();
        ch.access(0, 16, false, 16, 10);
        ch.access(1, 16, false, 16, 10);
        ch.access(0, 16, false, 16, 10);
        assert_eq!(ch.activations(), 3);
    }

    #[test]
    fn partial_beats_round_up() {
        let mut ch = Channel::new();
        ch.access(0, 17, false, 16, 0);
        assert_eq!(ch.busy_cycles(), 2);
    }

    #[test]
    fn read_write_counters_separate() {
        let mut ch = Channel::new();
        ch.access(0, 64, false, 16, 0);
        ch.access(0, 32, true, 16, 0);
        assert_eq!(ch.read_bytes(), 64);
        assert_eq!(ch.write_bytes(), 32);
    }

    #[test]
    fn streaming_rows_opens_each_in_turn() {
        let mut ch = Channel::new();
        ch.access(5, 16, false, 16, 10);
        // Row 5 is already open, so only rows 6, 7 and 8 activate.
        assert_eq!(ch.open_rows(5, 8, 4, 10), RowBufferOutcome::Hit);
        ch.transfer(4 * 2, 4 * 32, true);
        assert_eq!(ch.activations(), 4);
        assert_eq!(ch.busy_cycles(), (10 + 1) + 3 * 10 + 4 * 2);
        assert_eq!(ch.write_bytes(), 4 * 32);
        assert_eq!(ch.access(8, 16, false, 16, 10), RowBufferOutcome::Hit);
    }

    #[test]
    fn start_window_resets_busy_only() {
        let mut ch = Channel::new();
        ch.access(0, 64, false, 16, 10);
        ch.start_window();
        assert_eq!(ch.busy_cycles(), 0);
        assert_eq!(ch.activations(), 1);
        assert_eq!(ch.read_bytes(), 64);
        // row stays open across windows
        assert_eq!(ch.access(0, 16, false, 16, 10), RowBufferOutcome::Hit);
    }
}
