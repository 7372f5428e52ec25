//! timecurl semantics: the paper measures `time_total` — "everything from
//! when Curl starts establishing a TCP connection until it gets a response
//! for the HTTP request". This module carries the timing breakdown the
//! testbed records per request.

use simcore::{SimDuration, SimTime};

/// One measured request, as timecurl would log it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// When curl started connecting.
    pub started: SimTime,
    /// When the full response arrived.
    pub finished: SimTime,
    /// Which trace service this was.
    pub service: usize,
    pub client: usize,
    /// Did this request trigger a deployment (first request to the service)?
    pub triggered_deployment: bool,
}

impl RequestRecord {
    /// Curl's `time_total`.
    pub fn time_total(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// A run's completed requests, 24 bytes each: a [`RequestRecord`] holds two
/// `usize` fields and a `bool` (40 bytes), and a 1000× run completes 1.7 M of
/// them. Read back by value through [`Records::iter`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Records {
    rows: Vec<Row>,
}

/// One stored record: instants in nanoseconds, the service, and the client
/// with `triggered_deployment` in its top bit.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Row {
    started: u64,
    finished: u64,
    service: u32,
    client: u32,
}

const _: () = assert!(std::mem::size_of::<Row>() == 24);

/// The bit of [`Row::client`] that holds `triggered_deployment`.
const TRIGGERED: u32 = 1 << 31;

impl Row {
    fn get(self) -> RequestRecord {
        RequestRecord {
            started: SimTime::from_nanos(self.started),
            finished: SimTime::from_nanos(self.finished),
            service: self.service as usize,
            client: (self.client & !TRIGGERED) as usize,
            triggered_deployment: self.client & TRIGGERED != 0,
        }
    }
}

impl Records {
    pub fn new() -> Records {
        Records::default()
    }

    /// Room for `n` records before the store grows.
    pub fn with_capacity(n: usize) -> Records {
        Records {
            rows: Vec::with_capacity(n),
        }
    }

    /// Append `record`. Panics when its service or client does not fit the
    /// stored lanes (services below 2^32, clients below 2^31).
    pub fn push(&mut self, record: RequestRecord) {
        let service = u32::try_from(record.service).expect("service index fits 32 bits");
        let client = u32::try_from(record.client)
            .ok()
            .filter(|c| c & TRIGGERED == 0)
            .expect("client index fits 31 bits");
        self.rows.push(Row {
            started: record.started.as_nanos(),
            finished: record.finished.as_nanos(),
            service,
            client: if record.triggered_deployment {
                client | TRIGGERED
            } else {
                client
            },
        });
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[doc(hidden)] // clippy pairs it with `len`
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Record `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<RequestRecord> {
        self.rows.get(i).map(|&row| row.get())
    }

    /// Set record `i`'s `triggered_deployment` flag.
    pub fn set_triggered(&mut self, i: usize, triggered: bool) {
        let client = &mut self.rows[i].client;
        if triggered {
            *client |= TRIGGERED;
        } else {
            *client &= !TRIGGERED;
        }
    }

    /// The records in push order, by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rows: self.rows.iter(),
        }
    }
}

impl std::fmt::Debug for Records {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<RequestRecord> for Records {
    fn from_iter<I: IntoIterator<Item = RequestRecord>>(iter: I) -> Records {
        let iter = iter.into_iter();
        let mut records = Records::with_capacity(iter.size_hint().0);
        for record in iter {
            records.push(record);
        }
        records
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = RequestRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// [`Records::iter`]: each stored record decoded into a [`RequestRecord`].
#[derive(Clone)]
pub struct Iter<'a> {
    rows: std::slice::Iter<'a, Row>,
}

impl Iterator for Iter<'_> {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        self.rows.next().map(|&row| row.get())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_total_is_difference() {
        let r = RequestRecord {
            started: SimTime::from_secs_f64(1.0),
            finished: SimTime::from_secs_f64(1.5),
            service: 0,
            client: 3,
            triggered_deployment: true,
        };
        assert_eq!(r.time_total(), SimDuration::from_millis(500));
    }

    #[test]
    fn records_round_trip_every_field() {
        let records = [
            RequestRecord {
                started: SimTime::from_nanos(7),
                finished: SimTime::from_nanos(u64::MAX),
                service: u32::MAX as usize,
                client: (1 << 31) - 1,
                triggered_deployment: true,
            },
            RequestRecord {
                started: SimTime::ZERO,
                finished: SimTime::from_nanos(3),
                service: 0,
                client: 0,
                triggered_deployment: false,
            },
        ];
        let mut stored: Records = records.iter().copied().collect();
        assert_eq!(stored.len(), 2);
        assert!(stored.iter().eq(records.iter().copied()));
        assert_eq!(stored.get(1), Some(records[1]));
        assert_eq!(stored.get(2), None);
        stored.set_triggered(0, false);
        stored.set_triggered(1, true);
        assert_eq!(stored.get(0).unwrap().client, records[0].client);
        assert!(!stored.get(0).unwrap().triggered_deployment);
        assert!(stored.get(1).unwrap().triggered_deployment);
    }

    #[test]
    #[should_panic(expected = "client index fits 31 bits")]
    fn records_refuse_a_client_on_the_flag_bit() {
        Records::new().push(RequestRecord {
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            service: 0,
            client: 1 << 31,
            triggered_deployment: false,
        });
    }
}
