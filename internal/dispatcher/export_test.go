package dispatcher

// Notify lets the external tests queue one notification for the
// application's scheduler on the thread's node, as the dispatcher does.
func (a *App) Notify(kind NotifKind, th *Thread) { a.notify(kind, th) }

// Park puts th back into a wait state, wait-conds, without releasing
// what it holds: the hold-and-wait §3.3 rules out, which no path of the
// dispatcher takes. The returned func restores th's state.
func (th *Thread) Park() (unpark func()) {
	was := th.state
	th.state = threadWaitConds
	return func() { th.state = was }
}
