package main

import "time"

// clock is the wall clock the open loop runs on; the schedule test
// substitutes a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is the open loop's timetable: frame i is due at
// start + i × rows/rate, whatever happened to the frames before it. A
// write that returns late delays nothing but itself — the next due time
// comes from the table, never from when the previous write returned —
// and a frame written late is still timed from its due time, so a stall
// in the server is charged to every frame it held up.
type schedule struct {
	start time.Time
	rows  int     // rows per frame
	rate  float64 // rows per second
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(s.rows) / s.rate * float64(time.Second)))
}

// wait sleeps until frame i is due and returns how late the generator
// then is: zero on time, positive when the previous write overran.
func (s schedule) wait(c clock, i int) time.Duration {
	due := s.due(i)
	if d := due.Sub(c.Now()); d > 0 {
		c.Sleep(d)
	}
	if late := c.Now().Sub(due); late > 0 {
		return late
	}
	return 0
}
