package dispatcher

// Notify lets the external tests queue one notification for the
// application's scheduler on the thread's node, as the dispatcher does.
func (a *App) Notify(kind NotifKind, th *Thread) { a.notify(kind, th) }
